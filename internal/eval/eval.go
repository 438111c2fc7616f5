// Package eval implements provenance-aware evaluation of conjunctive
// queries and unions over annotated instances, following Def. 2.6
// (assignments) and Def. 2.12 (provenance of query results): the provenance
// of an output tuple t is the sum, over all assignments yielding t, of the
// product of the annotations of the tuples the assignment uses.
//
// Results are compared byte-for-byte across the cold, cached, maintained
// and parallel paths, so this package is canonical: no map iteration
// order, clock value or RNG draw may reach its output.
//
//provlint:canonical
package eval

import (
	"fmt"

	"provmin/internal/db"
	"provmin/internal/query"
	"provmin/internal/semiring"
)

// hashJoinMinAtoms is the conjunct size from which evaluation hash joins;
// smaller conjuncts do at most one join, where the tuple-at-a-time
// enumerator is measurably cheaper (no per-relation hash build). A
// variable so the differential tests can force the hash path on small
// queries too.
var hashJoinMinAtoms = 3

// Options configures evaluation.
type Options struct {
	// Parallelism bounds the worker count of the parallel hash-join probe:
	// 1 evaluates sequentially, 0 or below means GOMAXPROCS. Only joins
	// past ParallelThreshold fan out at all.
	Parallelism int
	// ParallelThreshold is the minimum number of partial assignments a join
	// step must carry before its probe is split across workers; 0 selects
	// the built-in default. Exposed so tests can force tiny joins parallel.
	ParallelThreshold int
}

// Assignment is a satisfying assignment of a query's relational atoms to
// database rows (Def. 2.6). Atom i is mapped to row Rows[i] of the relation
// named by the atom; Binding is the induced mapping on variables.
type Assignment struct {
	Rows    []int             // per body-atom row index
	Binding map[string]string // variable -> domain value
}

// EvalCQ evaluates a conjunctive query and returns its annotated result.
func EvalCQ(q *query.CQ, d *db.Instance) (*Result, error) {
	return EvalCQOpts(q, d, Options{})
}

// EvalCQOpts evaluates with explicit options.
func EvalCQOpts(q *query.CQ, d *db.Instance, opts Options) (*Result, error) {
	res := newResult()
	if err := evalCQInto(res, q, d, opts); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// evalCQInto accumulates one adjunct's assignments into res: conjuncts of
// hashJoinMinAtoms or more atoms are hash joined, smaller ones enumerated.
// Both contribute the same (tuple, monomial) multiset.
func evalCQInto(res *Result, q *query.CQ, d *db.Instance, opts Options) error {
	c, err := compileCQ(q, d)
	if err != nil {
		return err
	}
	if len(c.atoms) >= hashJoinMinAtoms {
		c.hashJoin(res, opts)
		return nil
	}
	return c.forEach(-1, nil, func(rows []int, binding []uint32) error {
		res.addWitness(c.headTuple(binding), c.monomial(rows))
		return nil
	})
}

// EvalUCQ evaluates a union adjunct by adjunct, summing provenance
// (Def. 2.12 for unions).
func EvalUCQ(u *query.UCQ, d *db.Instance) (*Result, error) {
	return EvalUCQOpts(u, d, Options{})
}

// EvalUCQOpts evaluates a union with explicit options.
func EvalUCQOpts(u *query.UCQ, d *db.Instance, opts Options) (*Result, error) {
	res := newResult()
	for _, q := range u.Adjuncts {
		if err := evalCQInto(res, q, d, opts); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// Provenance returns P(t, Q, D) for one tuple (the zero polynomial when t is
// not in the result).
func Provenance(u *query.UCQ, d *db.Instance, t db.Tuple) (semiring.Polynomial, error) {
	res, err := EvalUCQ(u, d)
	if err != nil {
		return semiring.Zero, err
	}
	p, _ := res.Lookup(t)
	return p, nil
}

// EvalInSemiring evaluates the union and maps every output annotation
// through the semiring homomorphism induced by val, exploiting the
// factorization property of N[X].
func EvalInSemiring[T any](u *query.UCQ, d *db.Instance, k semiring.Semiring[T], val func(tag string) T) (map[string]T, []db.Tuple, error) {
	res, err := EvalUCQ(u, d)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]T, res.Len())
	tuples := make([]db.Tuple, 0, res.Len())
	for _, ot := range res.Tuples() {
		out[ot.Tuple.Key()] = semiring.Eval[T](ot.Prov, k, val)
		tuples = append(tuples, ot.Tuple)
	}
	return out, tuples, nil
}

// validateCQ is the entry check of every evaluation path: the query must
// be well-formed and every atom must agree with its relation's arity. The
// server's HTTP status mapping matches on the error wording.
func validateCQ(q *query.CQ, d *db.Instance) error {
	if err := q.Validate(); err != nil {
		return err
	}
	for _, at := range q.Atoms {
		if r := d.Lookup(at.Rel); r != nil && r.Arity != len(at.Args) {
			return fmt.Errorf("atom %s: relation has arity %d", at, r.Arity)
		}
	}
	return nil
}

// ForEachAssignment enumerates every satisfying assignment of q over d and
// invokes fn for each. Enumeration order is deterministic. fn may return an
// error to abort.
func ForEachAssignment(q *query.CQ, d *db.Instance, fn func(Assignment) error) error {
	c, err := compileCQ(q, d)
	if err != nil {
		return err
	}
	return c.forEach(-1, nil, func(rows []int, binding []uint32) error {
		return fn(c.assignment(rows, binding))
	})
}
