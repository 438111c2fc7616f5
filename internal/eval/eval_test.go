package eval

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"provmin/internal/db"
	"provmin/internal/query"
	"provmin/internal/semiring"
)

// table2 builds relation R of Table 2 with its provenance column.
func table2() *db.Instance {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a", "a")
	d.MustAdd("R", "s2", "a", "b")
	d.MustAdd("R", "s3", "b", "a")
	d.MustAdd("R", "s4", "b", "b")
	return d
}

// table4 builds database D of the Lemma 3.6 proof (Table 4 + S = {(a):s0}).
func table4() *db.Instance {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a", "b")
	d.MustAdd("R", "s2", "b", "a")
	d.MustAdd("R", "s3", "a", "a")
	d.MustAdd("S", "s0", "a")
	return d
}

// table5 builds database D' of the Lemma 3.6 proof (Table 5 + S = {(a):s0}).
func table5() *db.Instance {
	d := db.NewInstance()
	d.MustAdd("R", "t1", "a", "b")
	d.MustAdd("R", "t2", "b", "c")
	d.MustAdd("R", "t3", "c", "a")
	d.MustAdd("R", "t4", "a", "a")
	d.MustAdd("S", "s0", "a")
	return d
}

const (
	qUnionText = "ans(x) :- R(x,y), R(y,x), x != y\nans(x) :- R(x,x)"
	qConjText  = "ans(x) :- R(x,y), R(y,x)"
	qNoPminTxt = "ans() :- R(x1,x2), R(x2,x3), R(x3,x4), R(x4,x5), R(x5,x1), S(x1), x1 != x2"
	qAltText   = "ans() :- R(x1,x2), R(x2,x3), R(x3,x4), R(x4,x5), R(x5,x1), S(x1), x1 != x3"
)

func mustProv(t *testing.T, res *Result, tuple db.Tuple) semiring.Polynomial {
	t.Helper()
	p, ok := res.Lookup(tuple)
	if !ok {
		t.Fatalf("tuple %v not in result:\n%s", tuple, res)
	}
	return p
}

func TestExample213QunionReproducesTable3(t *testing.T) {
	u := query.MustParseUnion(qUnionText)
	res, err := EvalUCQ(u, table2())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("result:\n%s", res)
	}
	// Table 3: (a) -> s2*s3 + s1, (b) -> s3*s2 + s4.
	if got, want := mustProv(t, res, db.Tuple{"a"}), semiring.MustParsePolynomial("s2*s3 + s1"); !got.Equal(want) {
		t.Errorf("prov(a) = %v, want %v", got, want)
	}
	if got, want := mustProv(t, res, db.Tuple{"b"}), semiring.MustParsePolynomial("s2*s3 + s4"); !got.Equal(want) {
		t.Errorf("prov(b) = %v, want %v", got, want)
	}
}

func TestExample214QconjProvenance(t *testing.T) {
	q := query.MustParse(qConjText)
	res, err := EvalCQ(q, table2())
	if err != nil {
		t.Fatal(err)
	}
	// Example 2.14: (a) -> s2*s3 + s1*s1, (b) -> s3*s2 + s4*s4.
	if got, want := mustProv(t, res, db.Tuple{"a"}), semiring.MustParsePolynomial("s2*s3 + s1^2"); !got.Equal(want) {
		t.Errorf("prov(a) = %v, want %v", got, want)
	}
	if got, want := mustProv(t, res, db.Tuple{"b"}), semiring.MustParsePolynomial("s2*s3 + s4^2"); !got.Equal(want) {
		t.Errorf("prov(b) = %v, want %v", got, want)
	}
}

func TestExample34BooleanQueries(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "s", "a")
	q := query.MustParse("ans() :- R(x), R(y)")
	qp := query.MustParse("ans() :- R(x)")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustProv(t, res, db.Tuple{}), semiring.MustParsePolynomial("s^2"); !got.Equal(want) {
		t.Errorf("prov(Q) = %v, want s^2", got)
	}
	resP, err := EvalCQ(qp, d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustProv(t, resP, db.Tuple{}), semiring.MustParsePolynomial("s"); !got.Equal(want) {
		t.Errorf("prov(Q') = %v, want s", got)
	}
}

func TestLemma36ProvenanceOnD(t *testing.T) {
	d := table4()
	resNoPmin, err := EvalCQ(query.MustParse(qNoPminTxt), d)
	if err != nil {
		t.Fatal(err)
	}
	// 2*(s1)^2*(s2)^2*s3*s0 + s1*s2*(s3)^3*s0
	want := semiring.MustParsePolynomial("2*s0*s1^2*s2^2*s3 + s0*s1*s2*s3^3")
	if got := mustProv(t, resNoPmin, db.Tuple{}); !got.Equal(want) {
		t.Errorf("P(QnoPmin, D) = %v, want %v", got, want)
	}
	resAlt, err := EvalCQ(query.MustParse(qAltText), d)
	if err != nil {
		t.Fatal(err)
	}
	// (s1)^2*(s2)^2*s3*s0 + s1*s2*(s3)^3*s0 — strictly smaller.
	wantAlt := semiring.MustParsePolynomial("s0*s1^2*s2^2*s3 + s0*s1*s2*s3^3")
	if got := mustProv(t, resAlt, db.Tuple{}); !got.Equal(wantAlt) {
		t.Errorf("P(Qalt, D) = %v, want %v", got, wantAlt)
	}
}

func TestLemma36ProvenanceOnDPrime(t *testing.T) {
	d := table5()
	resNoPmin, err := EvalCQ(query.MustParse(qNoPminTxt), d)
	if err != nil {
		t.Fatal(err)
	}
	want := semiring.MustParsePolynomial("s0*t1*t2*t3*t4^2")
	if got := mustProv(t, resNoPmin, db.Tuple{}); !got.Equal(want) {
		t.Errorf("P(QnoPmin, D') = %v, want %v", got, want)
	}
	resAlt, err := EvalCQ(query.MustParse(qAltText), d)
	if err != nil {
		t.Fatal(err)
	}
	// Two equal monomials: strictly greater than QnoPmin's provenance.
	wantAlt := semiring.MustParsePolynomial("2*s0*t1*t2*t3*t4^2")
	if got := mustProv(t, resAlt, db.Tuple{}); !got.Equal(wantAlt) {
		t.Errorf("P(Qalt, D') = %v, want %v", got, wantAlt)
	}
}

func TestExample52TriangleQuery(t *testing.T) {
	// Q̂ over D̂ (Table 6): s1^3 + 3*s1*s2*s3 + 3*s2*s4*s5.
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a", "a")
	d.MustAdd("R", "s2", "a", "b")
	d.MustAdd("R", "s3", "b", "a")
	d.MustAdd("R", "s4", "b", "c")
	d.MustAdd("R", "s5", "c", "a")
	q := query.MustParse("ans() :- R(x,y), R(y,z), R(z,x)")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	want := semiring.MustParsePolynomial("s1^3 + 3*s1*s2*s3 + 3*s2*s4*s5")
	if got := mustProv(t, res, db.Tuple{}); !got.Equal(want) {
		t.Errorf("P(Q̂, D̂) = %v, want %v", got, want)
	}
}

func TestEvalWithConstants(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a", "b")
	d.MustAdd("R", "s2", "b", "b")
	q := query.MustParse("ans(x) :- R(x,'b'), x != 'b'")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Contains(db.Tuple{"a"}) {
		t.Fatalf("result:\n%s", res)
	}
}

func TestEvalHeadConstant(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "b", "a")
	q := query.MustParse("ans('b','a') :- R('b','a')")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contains(db.Tuple{"b", "a"}) {
		t.Fatalf("result:\n%s", res)
	}
}

func TestEvalDiseqVarConst(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a")
	d.MustAdd("R", "s2", "b")
	q := query.MustParse("ans(x) :- R(x), x != 'a'")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Contains(db.Tuple{"b"}) {
		t.Fatalf("result:\n%s", res)
	}
}

func TestEvalMissingRelationIsEmpty(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a")
	q := query.MustParse("ans(x) :- R(x), Nope(x)")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("result should be empty:\n%s", res)
	}
}

func TestEvalArityMismatchFails(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a", "b")
	q := query.MustParse("ans(x) :- R(x)")
	if _, err := EvalCQ(q, d); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestEvalOrderInvariance(t *testing.T) {
	// The provenance result must not depend on the join shape: the hash
	// join, the enumerator and the parallel hash join all match the oracle.
	evalAllModes(t, query.MustParseUnion(qNoPminTxt), table4())
}

func TestForEachAssignmentCount(t *testing.T) {
	// Example 2.7: Qunion has two assignments per adjunct over Table 2.
	u := query.MustParseUnion(qUnionText)
	counts := make([]int, len(u.Adjuncts))
	for i, q := range u.Adjuncts {
		n := 0
		if err := ForEachAssignment(q, table2(), func(Assignment) error {
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		counts[i] = n
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Errorf("assignment counts = %v, want [2 2]", counts)
	}
}

func TestProvenanceHelper(t *testing.T) {
	u := query.MustParseUnion(qUnionText)
	p, err := Provenance(u, table2(), db.Tuple{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(semiring.MustParsePolynomial("s1 + s2*s3")) {
		t.Errorf("Provenance = %v", p)
	}
	zero, err := Provenance(u, table2(), db.Tuple{"zzz"})
	if err != nil {
		t.Fatal(err)
	}
	if !zero.IsZero() {
		t.Errorf("Provenance of absent tuple = %v", zero)
	}
}

func TestEvalInSemiringCounting(t *testing.T) {
	u := query.MustParseUnion(qConjText)
	vals, tuples, err := EvalInSemiring[int](u, table2(), semiring.Counting{}, func(string) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("tuples = %v", tuples)
	}
	// Each tuple of Qconj has exactly two derivations over Table 2.
	for k, v := range vals {
		if v != 2 {
			t.Errorf("derivations[%q] = %d, want 2", k, v)
		}
	}
}

func TestSelfJoinSameAtomTwice(t *testing.T) {
	// Both atoms map to the same tuple: annotation must be squared.
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a", "a")
	q := query.MustParse("ans() :- R(x,y), R(y,x)")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustProv(t, res, db.Tuple{}); !got.Equal(semiring.MustParsePolynomial("s1^2")) {
		t.Errorf("prov = %v, want s1^2", got)
	}
}

func TestCrossProductNoSharedVars(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "r1", "a")
	d.MustAdd("R", "r2", "b")
	d.MustAdd("S", "t1", "x")
	q := query.MustParse("ans() :- R(u), S(v)")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	want := semiring.MustParsePolynomial("r1*t1 + r2*t1")
	if got := mustProv(t, res, db.Tuple{}); !got.Equal(want) {
		t.Errorf("prov = %v, want %v", got, want)
	}
}

// pinInstance is the fixture of TestAssignmentOrderPinned: two binary
// relations, a unary and a ternary one, with enough shared values that
// constants and bound variables both drive index lookups.
func pinInstance() *db.Instance {
	d := db.NewInstance()
	for _, f := range [][]string{
		{"R", "r1", "a", "b"}, {"R", "r2", "b", "c"}, {"R", "r3", "a", "c"},
		{"R", "r4", "c", "a"}, {"R", "r5", "b", "a"}, {"R", "r6", "c", "c"},
		{"R", "r7", "a", "a"},
		{"S", "s1", "a"}, {"S", "s2", "c"}, {"S", "s3", "b"},
		{"T", "t1", "a", "b", "c"}, {"T", "t2", "b", "c", "a"},
		{"T", "t3", "a", "c", "c"}, {"T", "t4", "a", "a", "b"},
	} {
		d.MustAdd(f[0], f[1], f[2:]...)
	}
	return d
}

// renderAssignment prints an assignment's rows and its binding in
// variable-name order.
func renderAssignment(a Assignment) string {
	vars := make([]string, 0, len(a.Binding))
	for v := range a.Binding {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	fmt.Fprintf(&b, "rows=%v", a.Rows)
	for _, v := range vars {
		fmt.Fprintf(&b, " %s=%s", v, a.Binding[v])
	}
	return b.String()
}

// TestAssignmentOrderPinned fixes the rows, bindings and enumeration order
// of ForEachAssignment and Derivations — what `provmin explain` prints —
// on multi-atom queries whose atoms are reached through constant and
// bound-variable index lookups.
func TestAssignmentOrderPinned(t *testing.T) {
	d := pinInstance()
	var got []string
	q := query.MustParse("ans(x,z) :- R(x,y), R(y,z), T('a',y,w), S(z), x != z")
	if err := ForEachAssignment(q, d, func(a Assignment) error {
		got = append(got, renderAssignment(a))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	u := query.MustParseUnion("ans(x) :- R(x,y), R(y,x), S(y)\n" +
		"ans(x) :- T(x,y,'c'), R(y,'a')\nans(x) :- R(x,x), T(x,y,z)")
	ds, err := Derivations(u, d, db.Tuple{"a"})
	if err != nil {
		t.Fatal(err)
	}
	for _, dv := range ds {
		got = append(got, fmt.Sprintf("adjunct %d %s %s", dv.AdjunctIdx, renderAssignment(dv.Assignment), dv.Monomial))
	}
	want := []string{
		"rows=[0 1 0 1] w=c x=a y=b z=c",
		"rows=[1 3 2 0] w=c x=b y=c z=a",
		"rows=[1 5 2 1] w=c x=b y=c z=c",
		"rows=[2 5 2 1] w=c x=a y=c z=c",
		"rows=[5 3 2 0] w=c x=c y=c z=a",
		"rows=[3 0 3 2] w=b x=c y=a z=b",
		"rows=[3 6 3 0] w=b x=c y=a z=a",
		"rows=[4 2 3 1] w=b x=b y=a z=c",
		"rows=[4 6 3 0] w=b x=b y=a z=a",
		"rows=[6 0 3 2] w=b x=a y=a z=b",
		"rows=[6 2 3 1] w=b x=a y=a z=c",
		"adjunct 0 rows=[0 4 2] x=a y=b r1*r5*s3",
		"adjunct 0 rows=[2 3 1] x=a y=c r3*r4*s2",
		"adjunct 0 rows=[6 6 0] x=a y=a r7^2*s1",
		"adjunct 1 rows=[0 4] x=a y=b r5*t1",
		"adjunct 1 rows=[2 3] x=a y=c r4*t3",
		"adjunct 2 rows=[6 0] x=a y=b z=c r7*t1",
		"adjunct 2 rows=[6 2] x=a y=c z=c r7*t3",
		"adjunct 2 rows=[6 3] x=a y=a z=b r7*t4",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("enumeration drifted:\n%s", strings.Join(got, "\n"))
	}
}
