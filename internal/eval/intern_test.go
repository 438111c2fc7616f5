package eval

import (
	"fmt"
	"testing"

	"provmin/internal/db"
	"provmin/internal/query"
	"provmin/internal/workload"
)

// internedFixture and internedCases are the fixed differential cases of
// TestInternedMatchesStringFixed; FuzzEvalDifferential seeds from them.
func internedFixture() *db.Instance {
	d := db.NewInstance()
	d.MustAdd("R", "r1", "a", "a")
	d.MustAdd("R", "r2", "a", "b")
	d.MustAdd("R", "r3", "b", "a")
	d.MustAdd("R", "r4", "b", "c")
	d.MustAdd("R", "r5", "", "a") // the empty string is a legal value
	d.MustAdd("S", "s1", "a")
	d.MustAdd("S", "s2", "c")
	d.MustAdd("S", "s3", "")
	d.MustAdd("T", "t1", "x", "y", "z")
	return d
}

var internedCases = []string{
	"ans(x) :- R(x,y), R(y,x)",
	"ans(x) :- R(x,x)",
	"ans(x,y) :- R(x,z), R(z,y)",
	"ans(x) :- R(x,y), S(y)",
	"ans(x) :- R(x,'a')",
	"ans(x) :- R('a',x), R(x,'a')",
	"ans(x) :- R(x,'zzz')",            // constant the instance never stored
	"ans(x) :- R(x,y), x != 'zzz'",    // diseq against an unstored constant
	"ans(x) :- R(x,y), S(x), y != ''", // diseq against the empty string
	"ans(x) :- R('',x)",               // empty-string constant
	"ans(x,y) :- R(x,y), x != y",
	"ans(x,u) :- R(x,y), S(u)", // cross product
	"ans() :- R(x,y), R(y,z), R(z,x)",
	"ans(x) :- R(x,y), R(y,z), R(z,w), w != x",
	"ans(x) :- R(x,y); ans(x) :- R(y,x)",
	"ans(x) :- R(x,y), S(y); ans(x) :- R(x,x)",
	"ans(x) :- Missing(x)",
	"ans(x) :- R(x,y), Missing(y)",
	"ans(x,y,z) :- T(x,y,z)",
	"ans('k') :- R(x,x)", // constant head
	"ans(x) :- R(x,y), R(x,z), y != z",
	"ans(x) :- R(x,y), R(y,z), R(x,z)",
	"ans(x) :- R(x,y), S(x), S(y)",
	"ans(x,y) :- R(x,y), x != y, y != 'c', x != 'b'",
	"ans(x,y,z,w) :- R(x,y), R(y,z), R(z,w)", // 3 join vars: wide key path
}

func TestInternedMatchesStringFixed(t *testing.T) {
	d := internedFixture()
	for _, qt := range internedCases {
		evalAllModes(t, query.MustParseUnion(qt), d)
	}
}

// TestInternedMatchesStringRandom sweeps random unions over random
// instances through every evaluator mode.
func TestInternedMatchesStringRandom(t *testing.T) {
	params := workload.DefaultParams()
	params.NumAtoms = 4
	params.NumVars = 5
	params.NumRels = 3
	for seed := int64(0); seed < 30; seed++ {
		d := db.NewInstance()
		g := db.NewGenerator(seed)
		g.RandomRelation(d, "R1", 2, 20, 6)
		g.RandomRelation(d, "R2", 2, 15, 6)
		g.RandomRelation(d, "R3", 2, 10, 6)
		u := workload.RandomUCQ(seed, int(seed%3)+1, params)
		evalAllModes(t, u, d)
	}
}

// TestDeltaInternedMatchesString: old + delta must equal a fresh
// evaluation by the oracle, or promoted cache entries drift.
func TestDeltaInternedMatchesString(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		d := db.NewInstance()
		g := db.NewGenerator(seed)
		g.RandomGraph(d, "R", 10, 25)
		g.RandomRelation(d, "S", 1, 8, 10)
		u := query.MustParseUnion(
			"ans(x,z) :- R(x,y), R(y,z), S(x); ans(x,x) :- R(x,x)")
		old, err := EvalUCQ(u, d)
		if err != nil {
			t.Fatal(err)
		}
		oldLen := map[string]int{"R": d.Lookup("R").Len(), "S": d.Lookup("S").Len()}
		// Append rows that cannot already exist (values nK are outside the
		// generator's domain): the delta contract covers insertions only, a
		// tag overwrite would make the batch a mutation.
		for i := 0; i < 4; i++ {
			d.MustAdd("R", fmt.Sprintf("nr%d", i), fmt.Sprintf("d%d", i), fmt.Sprintf("n%d", i))
			d.MustAdd("R", fmt.Sprintf("nb%d", i), fmt.Sprintf("n%d", i), fmt.Sprintf("d%d", i+2))
		}
		d.MustAdd("R", "nloop", "n1", "n1")
		d.MustAdd("S", "sx", "n1")

		delta, err := EvalUCQDelta(u, d, oldLen)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := naiveEval(u, d)
		if err != nil {
			t.Fatal(err)
		}
		if got := mergeResults(old, delta); got.String() != fresh.String() {
			t.Fatalf("seed %d: old + delta != fresh eval:\n%s\nvs\n%s", seed, got, fresh)
		}
	}
}

// TestParallelJoinStress drives the parallel probe and emit hard enough to
// matter under -race: large probe sets, many workers, tiny threshold, and
// every result compared byte-for-byte against the sequential evaluator.
// CI runs this in a dedicated -race step.
func TestParallelJoinStress(t *testing.T) {
	queries := []string{
		"ans(x,y,z) :- R(x,y), R(y,z), R(z,x)",
		"ans(x,w) :- R(x,y), R(y,z), R(z,w)",
		"ans(x,y) :- R(x,y), R(y,z), x != z",
	}
	for seed := int64(0); seed < 4; seed++ {
		d := db.NewInstance()
		db.NewGenerator(seed).RandomGraph(d, "R", 40, 400)
		for _, qt := range queries {
			u := query.MustParseUnion(qt)
			seq, err := EvalUCQOpts(u, d, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 8} {
				got, err := EvalUCQOpts(u, d, Options{Parallelism: par, ParallelThreshold: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != seq.String() {
					t.Fatalf("seed %d par %d: parallel join diverges on %s", seed, par, qt)
				}
			}
		}
	}
}

// TestPlanOrderCostUsesDistincts: two join candidates of identical size
// are ranked by their join column's distinct count. Joining Seed through
// Keyed (distinct keys, ~1 match per binding) before Skewed (5 distinct
// values, ~20 matches) keeps the intermediate result small.
func TestPlanOrderCostUsesDistincts(t *testing.T) {
	d := db.NewInstance()
	for i := 0; i < 10; i++ {
		d.MustAdd("Seed", fmt.Sprintf("s%d", i), fmt.Sprintf("k%d", i))
	}
	for i := 0; i < 100; i++ {
		d.MustAdd("Skewed", fmt.Sprintf("f%d", i), fmt.Sprintf("k%d", i%5), fmt.Sprintf("p%d", i))
		d.MustAdd("Keyed", fmt.Sprintf("g%d", i), fmt.Sprintf("k%d", i), fmt.Sprintf("q%d", i))
	}
	// Body order puts Skewed before Keyed and both hold 100 rows, so a tie
	// on size keeps Skewed first; only the distinct-count division can
	// flip the order.
	order := planOrderOf(t, "ans(x,z,w) :- Seed(x), Skewed(x,z), Keyed(x,w)", d)
	if order[0] != 0 || order[1] != 2 {
		t.Errorf("cost order %v: want Seed then the key-joined atom [0 2 1]", order)
	}
}

// TestInternedErrorParity pins that the hash path and the enumerator
// reject malformed queries with the same wording (the server's HTTP
// status mapping matches on it).
func TestInternedErrorParity(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "r1", "a", "b")
	u := query.MustParseUnion("ans(x) :- R(x,y,z)") // arity mismatch
	forceHashJoin(t)
	_, errHash := EvalUCQ(u, d)
	forceEnumerator(t)
	_, errEnum := EvalUCQ(u, d)
	if errHash == nil || errEnum == nil {
		t.Fatalf("arity mismatch accepted: hash=%v enumerator=%v", errHash, errEnum)
	}
	if errHash.Error() != errEnum.Error() {
		t.Errorf("error wording diverges:\n%q\nvs\n%q", errHash, errEnum)
	}
}
