package eval

import (
	"testing"

	"provmin/internal/db"
	"provmin/internal/query"
	"provmin/internal/semiring"
)

// naiveEval is the differential oracle: Def. 2.6 and Def. 2.12 read
// literally. For every adjunct it tries every combination of one row per
// atom, on the string values of Rows() — no index, no join order, no
// interning — keeps the combinations that map each atom consistently and
// satisfy every disequality, and adds the product of their tags to the
// head tuple they produce.
func naiveEval(u *query.UCQ, d *db.Instance) (*Result, error) {
	res := newResult()
	for _, q := range u.Adjuncts {
		if err := validateCQ(q, d); err != nil {
			return nil, err
		}
		rows := make([]db.Row, len(q.Atoms))
		var walk func(i int)
		walk = func(i int) {
			if i < len(q.Atoms) {
				if rel := d.Lookup(q.Atoms[i].Rel); rel != nil {
					for _, row := range rel.Rows() {
						rows[i] = row
						walk(i + 1)
					}
				}
				return
			}
			binding := map[string]string{}
			tags := make([]string, len(rows))
			for j, at := range q.Atoms {
				for k, a := range at.Args {
					v := rows[j].Tuple[k]
					if a.Const {
						if a.Name != v {
							return
						}
						continue
					}
					if b, bound := binding[a.Name]; bound && b != v {
						return
					}
					binding[a.Name] = v
				}
				tags[j] = rows[j].Tag
			}
			value := func(a query.Arg) string {
				if a.Const {
					return a.Name
				}
				return binding[a.Name]
			}
			for _, dq := range q.Diseqs {
				if value(dq.Left) == value(dq.Right) {
					return
				}
			}
			head := make(db.Tuple, len(q.Head.Args))
			for k, a := range q.Head.Args {
				head[k] = value(a)
			}
			res.add(head, semiring.FromMonomial(semiring.NewMonomial(tags...), 1))
		}
		walk(0)
	}
	res.finish()
	return res, nil
}

// evalAllModes evaluates u with the hash join, the enumerator and the
// forced-parallel hash join, each on every conjunct regardless of size,
// and fails unless every rendered result is byte-identical to the
// oracle's — the equivalence contract the engine's result cache depends
// on. It returns the oracle's result.
func evalAllModes(t testing.TB, u *query.UCQ, d *db.Instance) *Result {
	t.Helper()
	want, err := naiveEval(u, d)
	if err != nil {
		t.Fatalf("oracle eval of %s: %v", u, err)
	}
	modes := []struct {
		name     string
		minAtoms int
		opts     Options
	}{
		{"hash", 1, Options{}},
		{"enumerator", maxAtoms, Options{}},
		{"parallel-hash", 1, Options{Parallelism: 4, ParallelThreshold: 1}},
	}
	defer func(old int) { hashJoinMinAtoms = old }(hashJoinMinAtoms)
	for _, m := range modes {
		hashJoinMinAtoms = m.minAtoms
		res, err := EvalUCQOpts(u, d, m.opts)
		if err != nil {
			t.Fatalf("%s eval of %s: %v", m.name, u, err)
		}
		if got := res.String(); got != want.String() {
			t.Errorf("%s diverges from the oracle on %s:\n%s\nvs\n%s", m.name, u, got, want)
		}
	}
	return want
}
