package minimize

import (
	"testing"

	"provmin/internal/eval"
	"provmin/internal/query"
	"provmin/internal/workload"
)

func TestIsSubQuery(t *testing.T) {
	q := query.MustParse("ans(x) :- R(x,y), R(x,z), S(x)")
	sub := query.MustParse("ans(x) :- R(x,y), S(x)")
	if !IsSubQuery(sub, q) {
		t.Error("sub should be a sub-query")
	}
	if IsSubQuery(q, sub) {
		t.Error("superset is not a sub-query")
	}
	otherHead := query.MustParse("ans(y) :- R(x,y), S(y)")
	if IsSubQuery(otherHead, q) {
		t.Error("different heads are not sub-queries")
	}
	// Multiset semantics: q has one S atom, sub cannot use it twice.
	dup := query.MustParse("ans(x) :- S(x), S(x)")
	if IsSubQuery(dup, q) {
		t.Error("sub-multiset condition violated")
	}
}

func TestIsSubQueryDiseqs(t *testing.T) {
	q := query.MustParse("ans() :- R(x,y), R(y,z), x != y")
	okSub := query.MustParse("ans() :- R(x,y), x != y")
	if !IsSubQuery(okSub, q) {
		t.Error("diseq inherited from q should be allowed")
	}
	badSub := query.MustParse("ans() :- R(x,y), R(y,z), x != z")
	if IsSubQuery(badSub, q) {
		t.Error("new diseq must disqualify the sub-query")
	}
}

func TestIsPMinimalEquivalentCQ(t *testing.T) {
	q := query.MustParse("ans(x) :- R(x,y), R(x,z)")
	yes := query.MustParse("ans(x) :- R(x,y)")
	got, err := IsPMinimalEquivalentCQ(q, yes)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("R(x,y) is the p-minimal equivalent (Theorem 3.9)")
	}
	// The full query itself is not minimal.
	got, err = IsPMinimalEquivalentCQ(q, q)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("a reducible query is not its own p-minimal equivalent")
	}
}

func TestIsPMinimalEquivalentCQNotEquivalent(t *testing.T) {
	q := query.MustParse("ans(x) :- R(x,y), S(x)")
	sub := query.MustParse("ans(x) :- S(x)")
	got, err := IsPMinimalEquivalentCQ(q, sub)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("dropping R changes the query; not equivalent")
	}
}

func TestIsPMinimalEquivalentCQErrors(t *testing.T) {
	withDiseq := query.MustParse("ans() :- R(x,y), x != y")
	if _, err := IsPMinimalEquivalentCQ(withDiseq, withDiseq); err == nil {
		t.Error("disequalities must be rejected")
	}
	q := query.MustParse("ans(x) :- R(x,y)")
	notSub := query.MustParse("ans(x) :- S(x)")
	if _, err := IsPMinimalEquivalentCQ(q, notSub); err == nil {
		t.Error("non-sub-query must be rejected")
	}
}

func TestIsPMinimalCCQ(t *testing.T) {
	dup := query.MustParse("ans() :- R(v1,v1), R(v1,v1)")
	got, err := IsPMinimalCCQ(dup)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("duplicated atoms mean not minimal")
	}
	min := query.MustParse("ans(x) :- R(x,y), x != y")
	got, err = IsPMinimalCCQ(min)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("duplicate-free complete query is minimal")
	}
	incomplete := query.MustParse("ans() :- R(x,y), R(y,z), x != z")
	if _, err := IsPMinimalCCQ(incomplete); err == nil {
		t.Error("incomplete query must be rejected")
	}
}

// TestLemma45AdjunctAssignmentsDisjoint verifies Lemma 4.5 on the Figure 3
// example: because Can keeps Q's atom order in every completion, an
// assignment is a vector of rows per atom position, and no vector satisfies
// two different adjuncts.
func TestLemma45AdjunctAssignmentsDisjoint(t *testing.T) {
	can := Can(workload.QHat, nil)
	d := workload.Table6()
	seen := map[string]int{} // row-vector key -> adjunct index
	for ai, adj := range can.Adjuncts {
		err := eval.ForEachAssignment(adj, d, func(a eval.Assignment) error {
			key := ""
			for _, r := range a.Rows {
				key += string(rune('0' + r))
			}
			if prev, ok := seen[key]; ok && prev != ai {
				t.Errorf("assignment %q satisfies adjuncts %d and %d", key, prev, ai)
			}
			seen[key] = ai
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no assignments found")
	}
}
