package eval

import (
	"fmt"
	"testing"

	"provmin/internal/db"
	"provmin/internal/query"
	"provmin/internal/semiring"
)

// The fuzz alphabet. Relations have fixed arities, so every decoded atom
// agrees with its relation; M never holds a fact and stands for an absent
// relation. The initial instance stores only the first fuzzFactValues
// values, so "zzz" is a constant it has never seen until a batch inserts
// it.
var (
	fuzzRels = []struct {
		name  string
		arity int
	}{{"R", 2}, {"S", 1}, {"T", 3}, {"M", 1}}
	fuzzValues = []string{"a", "b", "c", "", "x", "y", "z", "zzz"}
)

const (
	fuzzFactRels   = 3 // facts go to R, S and T
	fuzzFactValues = 7 // initial facts never store "zzz"
	fuzzVars       = 5 // variables x0..x4 per adjunct
	fuzzMaxFacts   = 12
	fuzzMaxBatch   = 4
	fuzzMaxAdj     = 3
	fuzzMaxAtoms   = 4
	fuzzMaxHead    = 4
	fuzzMaxDiseqs  = 3
)

// byteReader hands out fuzz bytes as small bounded integers, and zeros
// once the input runs out.
type byteReader []byte

func (r *byteReader) next(n int) int {
	if len(*r) == 0 {
		return 0
	}
	v := int((*r)[0]) % n
	*r = (*r)[1:]
	return v
}

// decodeCase reads an initial instance, an append-only batch and a UCQ≠
// from data; ok is false when the union is not a valid query.
func decodeCase(data []byte) (facts, batch []deltaFact, u *query.UCQ, ok bool) {
	r := byteReader(data)
	readFacts := func(n, values int, tag string) []deltaFact {
		out := make([]deltaFact, n)
		for i := range out {
			rel := fuzzRels[r.next(fuzzFactRels)]
			vals := make([]string, rel.arity)
			for j := range vals {
				vals[j] = fuzzValues[r.next(values)]
			}
			out[i] = deltaFact{rel.name, fmt.Sprintf("%s%d", tag, i), vals}
		}
		return out
	}
	facts = readFacts(r.next(fuzzMaxFacts+1), fuzzFactValues, "t")
	batch = readFacts(r.next(fuzzMaxBatch+1), len(fuzzValues), "n")
	arg := func() query.Arg {
		k := r.next(fuzzVars + len(fuzzValues))
		if k < fuzzVars {
			return query.V(fmt.Sprintf("x%d", k))
		}
		return query.C(fuzzValues[k-fuzzVars])
	}
	nadj, harity := 1+r.next(fuzzMaxAdj), r.next(fuzzMaxHead+1)
	u = &query.UCQ{}
	for range nadj {
		atoms := make([]query.Atom, 1+r.next(fuzzMaxAtoms))
		for i := range atoms {
			rel := fuzzRels[r.next(len(fuzzRels))]
			args := make([]query.Arg, rel.arity)
			for j := range args {
				args[j] = arg()
			}
			atoms[i] = query.NewAtom(rel.name, args...)
		}
		head := make([]query.Arg, harity)
		for j := range head {
			head[j] = arg()
		}
		diseqs := make([]query.Diseq, r.next(fuzzMaxDiseqs+1))
		for j := range diseqs {
			diseqs[j] = query.NewDiseq(arg(), arg())
		}
		u.Adjuncts = append(u.Adjuncts, query.NewCQ(query.NewAtom("ans", head...), atoms, diseqs))
	}
	return facts, batch, u, u.Validate() == nil
}

// encodeCase is decodeCase's inverse for seeding: relations outside the
// alphabet become M, values outside it "zzz", and variables are numbered
// by first occurrence in each adjunct.
func encodeCase(d *db.Instance, batch []deltaFact, u *query.UCQ) []byte {
	var b []byte
	put := func(v int) { b = append(b, byte(v)) }
	relIndex := func(name string) int {
		for i, r := range fuzzRels {
			if r.name == name {
				return i
			}
		}
		return len(fuzzRels) - 1
	}
	valueIndex := func(v string) int {
		for i, w := range fuzzValues {
			if w == v {
				return i
			}
		}
		return len(fuzzValues) - 1
	}
	putFacts := func(facts []deltaFact) {
		put(len(facts))
		for _, f := range facts {
			put(relIndex(f.rel))
			for _, v := range f.values {
				put(valueIndex(v))
			}
		}
	}
	var facts []deltaFact
	for _, rel := range d.Relations() {
		for _, row := range rel.Rows() {
			facts = append(facts, deltaFact{rel.Name, row.Tag, row.Tuple})
		}
	}
	putFacts(facts)
	putFacts(batch)
	put(len(u.Adjuncts) - 1)
	put(len(u.Adjuncts[0].Head.Args))
	for _, q := range u.Adjuncts {
		vars := map[string]int{}
		putArg := func(a query.Arg) {
			if a.Const {
				put(fuzzVars + valueIndex(a.Name))
				return
			}
			if _, ok := vars[a.Name]; !ok {
				vars[a.Name] = len(vars)
			}
			put(vars[a.Name])
		}
		put(len(q.Atoms) - 1)
		for _, at := range q.Atoms {
			put(relIndex(at.Rel))
			for _, a := range at.Args {
				putArg(a)
			}
		}
		for _, a := range q.Head.Args {
			putArg(a)
		}
		put(len(q.Diseqs))
		for _, dq := range q.Diseqs {
			putArg(dq.Left)
			putArg(dq.Right)
		}
	}
	return b
}

// FuzzEvalDifferential checks every evaluation path against the oracle on
// small decoded UCQ≠s and instances: the hash join, the enumerator and the
// forced-parallel hash join render the oracle's result; EvalDirect in the
// counting semiring counts each tuple's derivations; and after an
// append-only batch, old + EvalUCQDelta renders a fresh evaluation.
func FuzzEvalDifferential(f *testing.F) {
	batch := []deltaFact{
		{"R", "n0", []string{"c", "a"}}, {"R", "n1", []string{"zzz", "b"}},
		{"S", "n2", []string{"b"}}, {"T", "n3", []string{"a", "b", "c"}},
	}
	for _, fixed := range []struct {
		d     *db.Instance
		cases []string
	}{{hashJoinFixture(), hashJoinCases}, {internedFixture(), internedCases}} {
		for _, qt := range fixed.cases {
			seed := encodeCase(fixed.d, batch, query.MustParseUnion(qt))
			if _, _, _, ok := decodeCase(seed); !ok {
				f.Fatalf("seed for %s does not decode to a valid query", qt)
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		facts, batch, u, ok := decodeCase(data)
		if !ok {
			return
		}
		d := db.NewInstance()
		applyBatch(t, d, facts)
		old := evalAllModes(t, u, d)
		counts, tuples, err := EvalDirect[int](u, d, semiring.Counting{}, func(string) int { return 1 })
		if err != nil {
			t.Fatal(err)
		}
		if len(tuples) != old.Len() {
			t.Errorf("EvalDirect derives %d tuples, the oracle %d, on %s", len(tuples), old.Len(), u)
		}
		for _, ot := range old.Tuples() {
			if got, want := counts[ot.Tuple.Key()], semiring.NumDerivations(ot.Prov); got != want {
				t.Errorf("EvalDirect counts %d derivations of %s, the oracle %d, on %s", got, ot.Tuple, want, u)
			}
		}
		oldLen := applyBatch(t, d, batch)
		delta, err := EvalUCQDelta(u, d, oldLen)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mergeResults(old, delta).String(), evalAllModes(t, u, d).String(); got != want {
			t.Errorf("old + delta diverges from fresh evaluation on %s:\n%s\nvs\n%s", u, got, want)
		}
	})
}
