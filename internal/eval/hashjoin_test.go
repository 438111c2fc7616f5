package eval

import (
	"fmt"
	"math"
	"testing"

	"provmin/internal/db"
	"provmin/internal/query"
	"provmin/internal/workload"
)

// maxAtoms is a hashJoinMinAtoms no conjunct reaches.
const maxAtoms = math.MaxInt

// setHashJoinMinAtoms sets the conjunct size from which evaluation hash
// joins, for the rest of the test.
func setHashJoinMinAtoms(t testing.TB, n int) {
	t.Helper()
	old := hashJoinMinAtoms
	hashJoinMinAtoms = n
	t.Cleanup(func() { hashJoinMinAtoms = old })
}

// forceHashJoin drops the small-conjunct fallback for one test, so the
// hash path runs on every query size instead of 1–2-atom conjuncts being
// routed to the enumerator.
func forceHashJoin(t testing.TB) { setHashJoinMinAtoms(t, 1) }

// forceEnumerator routes every conjunct to the enumerator for one test.
func forceEnumerator(t testing.TB) { setHashJoinMinAtoms(t, maxAtoms) }

// hashJoinFixture and hashJoinCases are the fixed differential cases of
// TestHashJoinMatchesNestedLoopFixed; FuzzEvalDifferential seeds from them.
func hashJoinFixture() *db.Instance {
	d := db.NewInstance()
	d.MustAdd("R", "r1", "a", "a")
	d.MustAdd("R", "r2", "a", "b")
	d.MustAdd("R", "r3", "b", "a")
	d.MustAdd("R", "r4", "b", "c")
	d.MustAdd("S", "s1", "a")
	d.MustAdd("S", "s2", "c")
	d.MustAdd("T", "t1", "x", "y", "z")
	return d
}

var hashJoinCases = []string{
	"ans(x) :- R(x,y), R(y,x)",                       // paper query, self join
	"ans(x) :- R(x,x)",                               // repeated variable in one atom
	"ans(x,y) :- R(x,z), R(z,y)",                     // chain
	"ans(x) :- R(x,y), S(y)",                         // cross relation join
	"ans(x) :- R(x,'a')",                             // constant argument
	"ans(x) :- R('a',x), R(x,'a')",                   // constants both ends
	"ans(x,y) :- R(x,y), x != y",                     // disequality
	"ans(x,y) :- R(x,y), x != 'a'",                   // var-const disequality
	"ans(x,u) :- R(x,y), S(u)",                       // cross product (disconnected)
	"ans() :- R(x,y), R(y,z), R(z,x)",                // boolean cycle
	"ans(x) :- R(x,y), R(y,z), R(z,w), w != x",       // long chain + diseq
	"ans(x) :- R(x,y); ans(x) :- R(y,x)",             // union
	"ans(x) :- R(x,y), S(y); ans(x) :- R(x,x)",       // mixed union
	"ans(x) :- Missing(x)",                           // unknown relation: empty
	"ans(x) :- R(x,y), Missing(y)",                   // join with unknown relation
	"ans(x,y,z) :- T(x,y,z)",                         // ternary scan
	"ans('k') :- R(x,x)",                             // constant head
	"ans(x) :- R(x,y), R(x,z), y != z",               // branching + diseq
	"ans(x) :- R(x,y), R(y,z), R(x,z)",               // triangle
	"ans(x,y) :- R(x,y), R(y,y)",                     // join into self-loop
	"ans(x) :- R(x,y), S(x), S(y)",                   // multiple unary filters
	"ans(x) :- S(x), R(x,y), R(y,w), R(w,'a')",       // selective constant late
	"ans(x,y) :- R(x,y), x != y, y != 'c', x != 'b'", // several diseqs
}

func TestHashJoinMatchesNestedLoopFixed(t *testing.T) {
	d := hashJoinFixture()
	for _, qt := range hashJoinCases {
		evalAllModes(t, query.MustParseUnion(qt), d)
	}
}

func TestHashJoinStaticDiseqs(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "r1", "a", "b")
	// 'a' != 'a' is statically unsatisfiable; 'a' != 'b' always holds.
	sat := query.NewCQ(
		query.NewAtom("ans", query.V("x")),
		[]query.Atom{query.NewAtom("R", query.V("x"), query.V("y"))},
		[]query.Diseq{query.NewDiseq(query.C("a"), query.C("b"))},
	)
	unsat := query.NewCQ(
		query.NewAtom("ans", query.V("x")),
		[]query.Atom{query.NewAtom("R", query.V("x"), query.V("y"))},
		[]query.Diseq{query.NewDiseq(query.C("a"), query.C("a"))},
	)
	if evalAllModes(t, query.Single(sat), d).Len() == 0 {
		t.Errorf("satisfied constant disequality emptied the result")
	}
	if got := evalAllModes(t, query.Single(unsat), d); got.Len() != 0 {
		t.Errorf("unsatisfiable constant disequality produced tuples:\n%s", got)
	}
}

// TestHashJoinMatchesNestedLoopRandom sweeps random unions over random
// instances, self-joins and disequalities included, against the oracle.
func TestHashJoinMatchesNestedLoopRandom(t *testing.T) {
	params := workload.DefaultParams()
	params.NumAtoms = 4
	params.NumVars = 5
	params.NumRels = 3
	for seed := int64(0); seed < 40; seed++ {
		d := db.NewInstance()
		g := db.NewGenerator(seed)
		g.RandomRelation(d, "R1", 2, 20, 6)
		g.RandomRelation(d, "R2", 2, 15, 6)
		g.RandomRelation(d, "R3", 2, 10, 6)
		u := workload.RandomUCQ(seed, int(seed%3)+1, params)
		evalAllModes(t, u, d)
	}
}

// TestHashJoinSeparatorInjection: values are arbitrary strings, so a
// separator byte inside a value must not make two distinct bindings build
// the same join key. Under naive 0x1f framing, ("a\x1f","b") and
// ("a","\x1fb") collide on a two-variable join and produce a match the
// oracle (correctly) rejects.
func TestHashJoinSeparatorInjection(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("A", "a1", "a", "\x1fb")
	d.MustAdd("B", "b1", "a\x1f", "b")
	q := query.NewCQ(
		query.NewAtom("ans", query.V("x"), query.V("y")),
		[]query.Atom{
			query.NewAtom("A", query.V("x"), query.V("y")),
			query.NewAtom("B", query.V("x"), query.V("y")),
		},
		nil,
	)
	if got := evalAllModes(t, query.Single(q), d); got.Len() != 0 {
		t.Errorf("distinct bindings joined via separator collision:\n%s", got)
	}
}

// TestHashJoinErrors pins that the hash path rejects malformed queries.
func TestHashJoinErrors(t *testing.T) {
	forceHashJoin(t)
	d := db.NewInstance()
	d.MustAdd("R", "r1", "a", "b")
	u := query.MustParseUnion("ans(x) :- R(x,y,z)") // arity mismatch
	if _, err := EvalUCQ(u, d); err == nil {
		t.Error("hash join accepted an arity-mismatched atom")
	}
	bad := query.Single(query.NewCQ(
		query.NewAtom("ans", query.V("q")), // head var not in body
		[]query.Atom{query.NewAtom("R", query.V("x"), query.V("y"))},
		nil,
	))
	if _, err := EvalUCQ(bad, d); err == nil {
		t.Error("hash join accepted an unsafe head variable")
	}
}

// TestPlanOrderSelectivity: the planner starts from the most selective
// atom and only leaves the connected prefix when it must.
func TestPlanOrderSelectivity(t *testing.T) {
	d := db.NewInstance()
	for i := 0; i < 50; i++ {
		d.MustAdd("Big", fmt.Sprintf("b%d", i), fmt.Sprintf("v%d", i), "a")
	}
	d.MustAdd("Small", "s1", "v1")
	if order := planOrderOf(t, "ans(x) :- Big(x,y), Small(x)", d); order[0] != 1 {
		t.Errorf("plan order %v: want the 1-row Small atom first", order)
	}
	// A constant narrows Big below Small via the column index.
	d2 := db.NewInstance()
	for i := 0; i < 50; i++ {
		d2.MustAdd("Big", fmt.Sprintf("b%d", i), fmt.Sprintf("v%d", i), "a")
	}
	for i := 0; i < 10; i++ {
		d2.MustAdd("Small", fmt.Sprintf("s%d", i), fmt.Sprintf("v%d", i))
	}
	if order := planOrderOf(t, "ans(x) :- Big(x,y), Small(x), Big('v7',x)", d2); order[0] != 2 {
		t.Errorf("plan order %v: want the constant-narrowed atom first", order)
	}
}

// planOrderOf compiles the query over d and returns the hash join's plan.
func planOrderOf(t *testing.T, text string, d *db.Instance) []int {
	t.Helper()
	c, err := compileCQ(query.MustParse(text), d)
	if err != nil {
		t.Fatal(err)
	}
	return c.planOrder()
}

// BenchmarkJoinMultiConjunct is the acceptance workload: multi-conjunct
// queries whose cost is in the join search — a 4-atom chain over a sparse
// graph and a triangle with two join variables on its closing atom.
func BenchmarkJoinMultiConjunct(b *testing.B) {
	chain := db.NewInstance()
	db.NewGenerator(3).RandomGraph(chain, "R", 300, 600)
	triangle := db.NewInstance()
	db.NewGenerator(5).RandomGraph(triangle, "R", 60, 360)
	workloads := []struct {
		name string
		u    *query.UCQ
		d    *db.Instance
	}{
		{"chain4", query.Single(workload.ChainCQ(4)), chain},
		{"triangle", query.MustParseUnion("ans(x,y,z) :- R(x,y), R(y,z), R(z,x)"), triangle},
	}
	for _, w := range workloads {
		b.Run(w.name+"/hash", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := EvalUCQ(w.u, w.d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
