package eval

import (
	"provmin/internal/db"
	"provmin/internal/query"
	"provmin/internal/semiring"
)

// EvalDirect evaluates a union directly in an arbitrary commutative
// semiring, multiplying tag valuations per assignment and adding across
// assignments — without materializing N[X] polynomials. By the
// factorization property this agrees with EvalInSemiring (which evaluates
// the polynomial afterwards), but skips the polynomial construction;
// BenchmarkSemiringEvalAblation measures the saving. Tuples are listed in
// the order the enumerator first derives them.
func EvalDirect[T any](u *query.UCQ, d *db.Instance, k semiring.Semiring[T], val func(tag string) T) (map[string]T, []db.Tuple, error) {
	acc := map[string]T{}
	var tuples []db.Tuple
	for _, q := range u.Adjuncts {
		c, err := compileCQ(q, d)
		if err != nil {
			return nil, nil, err
		}
		err = c.forEach(-1, nil, func(rows []int, binding []uint32) error {
			term := k.One()
			for i, at := range c.atoms {
				term = k.Mul(term, val(at.rel.Rows()[rows[i]].Tag))
			}
			t := c.headTuple(binding)
			key := t.Key()
			if cur, ok := acc[key]; ok {
				acc[key] = k.Add(cur, term)
			} else {
				acc[key] = term
				tuples = append(tuples, t)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return acc, tuples, nil
}

// Derivations returns the assignments that yield tuple t, each with the
// monomial it contributes — the explanations of t. The monomials sum to
// P(t, Q, D). AdjunctIdx identifies which adjunct produced the derivation.
type Derivation struct {
	AdjunctIdx int
	Assignment Assignment
	Monomial   semiring.Monomial
}

// Derivations enumerates all derivations of t under u over d, adjunct by
// adjunct in ForEachAssignment's order.
func Derivations(u *query.UCQ, d *db.Instance, t db.Tuple) ([]Derivation, error) {
	var out []Derivation
	for ai, q := range u.Adjuncts {
		c, err := compileCQ(q, d)
		if err != nil {
			return nil, err
		}
		err = c.forEach(-1, nil, func(rows []int, binding []uint32) error {
			if c.headTuple(binding).Equal(t) {
				out = append(out, Derivation{AdjunctIdx: ai, Assignment: c.assignment(rows, binding), Monomial: c.monomial(rows)})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
