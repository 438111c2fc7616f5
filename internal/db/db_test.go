package db

import "testing"

// paperRelationR builds the relation R of Table 2.
func paperRelationR() *Instance {
	d := NewInstance()
	d.MustAdd("R", "s1", "a", "a")
	d.MustAdd("R", "s2", "a", "b")
	d.MustAdd("R", "s3", "b", "a")
	d.MustAdd("R", "s4", "b", "b")
	return d
}

func TestInstanceBasics(t *testing.T) {
	d := paperRelationR()
	r := d.Lookup("R")
	if r == nil || r.Len() != 4 || r.Arity != 2 {
		t.Fatalf("R = %v", r)
	}
	if !r.Contains("a", "b") || r.Contains("c", "c") {
		t.Error("Contains is wrong")
	}
	if got := r.TagOf("b", "a"); got != "s3" {
		t.Errorf("TagOf(b,a) = %q", got)
	}
	if got := r.TagOf("z", "z"); got != "" {
		t.Errorf("TagOf(absent) = %q", got)
	}
	if d.NumTuples() != 4 {
		t.Errorf("NumTuples = %d", d.NumTuples())
	}
}

func TestInstanceAbstractlyTagged(t *testing.T) {
	d := paperRelationR()
	if !d.IsAbstractlyTagged() {
		t.Error("Table 2 instance is abstractly tagged")
	}
	// §6 example: both tuples annotated with the same tag s.
	g := NewInstance()
	g.MustAdd("R", "s", "a")
	g.MustAdd("R", "s", "b")
	if g.IsAbstractlyTagged() {
		t.Error("repeated tags must not count as abstractly tagged")
	}
}

func TestArityMismatch(t *testing.T) {
	d := NewInstance()
	d.MustAdd("R", "s1", "a", "b")
	if err := d.Add("R", "s2", "a"); err == nil {
		t.Error("arity mismatch must fail")
	}
	if _, err := d.Relation("R", 3); err == nil {
		t.Error("re-declaring with different arity must fail")
	}
}

func TestAddReplacesTag(t *testing.T) {
	d := NewInstance()
	d.MustAdd("R", "s1", "a")
	d.MustAdd("R", "s9", "a")
	r := d.Lookup("R")
	if r.Len() != 1 || r.TagOf("a") != "s9" {
		t.Errorf("set semantics: %v", r.Rows())
	}
}

func TestDelete(t *testing.T) {
	d := paperRelationR()
	r := d.Lookup("R")
	if !r.Delete("a", "b") {
		t.Fatal("Delete should find (a,b)")
	}
	if r.Contains("a", "b") || r.Len() != 3 {
		t.Error("tuple still present after delete")
	}
	if r.Delete("a", "b") {
		t.Error("second delete should report absence")
	}
	// byKey must be reindexed.
	if got := r.TagOf("b", "b"); got != "s4" {
		t.Errorf("TagOf after delete = %q", got)
	}
}

func TestRowsWithIndex(t *testing.T) {
	d := paperRelationR()
	r := d.Lookup("R")
	id := func(v string) uint32 {
		t.Helper()
		id, ok := d.Symbols().Lookup(v)
		if !ok {
			t.Fatalf("value %q not interned", v)
		}
		return id
	}
	rows := r.RowsWithID(0, id("a"))
	if len(rows) != 2 {
		t.Fatalf("RowsWithID(0,a) = %v", rows)
	}
	for _, i := range rows {
		if r.Rows()[i].Tuple[0] != "a" {
			t.Errorf("row %d does not match", i)
		}
	}
	d.Symbols().Intern("zzz") // interned, but stored in no row of R
	if got := r.RowsWithID(1, id("zzz")); len(got) != 0 {
		t.Errorf("RowsWithID miss = %v", got)
	}
	if got := r.RowsWithID(5, id("a")); got != nil {
		t.Errorf("out-of-range column = %v", got)
	}
	// Index must invalidate after mutation.
	r.MustAdd("s5", "a", "c")
	if got := r.RowsWithID(0, id("a")); len(got) != 3 {
		t.Errorf("RowsWithID after add = %v", got)
	}
}

func TestActiveDomainAndTags(t *testing.T) {
	d := paperRelationR()
	dom := d.ActiveDomain()
	if len(dom) != 2 || dom[0] != "a" || dom[1] != "b" {
		t.Errorf("ActiveDomain = %v", dom)
	}
	tags := d.Tags()
	if len(tags) != 4 || tags[0] != "s1" || tags[3] != "s4" {
		t.Errorf("Tags = %v", tags)
	}
}

func TestFactOf(t *testing.T) {
	d := paperRelationR()
	rel, tup, ok := d.FactOf("s3")
	if !ok || rel != "R" || !tup.Equal(Tuple{"b", "a"}) {
		t.Errorf("FactOf(s3) = %s %v %v", rel, tup, ok)
	}
	if _, _, ok := d.FactOf("nope"); ok {
		t.Error("FactOf(absent tag) must report false")
	}
}

func TestRetag(t *testing.T) {
	g := NewInstance()
	g.MustAdd("R", "s", "a")
	g.MustAdd("R", "s", "b")
	fresh, mapping := g.Retag("t")
	if !fresh.IsAbstractlyTagged() {
		t.Error("Retag must produce an abstractly tagged instance")
	}
	if len(mapping) != 2 {
		t.Fatalf("mapping = %v", mapping)
	}
	for _, old := range mapping {
		if old != "s" {
			t.Errorf("mapping value = %q, want s", old)
		}
	}
	// Original must be untouched.
	if g.Lookup("R").TagOf("a") != "s" {
		t.Error("Retag must not mutate the original")
	}
}

func TestCloneDeep(t *testing.T) {
	d := paperRelationR()
	c := d.Clone()
	c.Lookup("R").Delete("a", "a")
	if d.Lookup("R").Len() != 4 {
		t.Error("Clone must be deep")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b := NewInstance(), NewInstance()
	NewGenerator(42).RandomRelation(a, "R", 2, 10, 5)
	NewGenerator(42).RandomRelation(b, "R", 2, 10, 5)
	if a.String() != b.String() {
		t.Error("same seed must produce the same instance")
	}
	c := NewInstance()
	NewGenerator(43).RandomRelation(c, "R", 2, 10, 5)
	if a.String() == c.String() {
		t.Error("different seeds should (overwhelmingly) differ")
	}
}

func TestGeneratorShapes(t *testing.T) {
	d := NewInstance()
	g := NewGenerator(1)
	if r := g.Cycle(d, "C", 5); r.Len() != 5 || !r.Contains("d4", "d0") {
		t.Errorf("Cycle = %v", r.Rows())
	}
	if r := g.Path(d, "P", 5); r.Len() != 4 || r.Contains("d4", "d0") {
		t.Errorf("Path = %v", r.Rows())
	}
	if r := g.Unary(d, "U", 3); r.Len() != 3 || !r.Contains("d2") {
		t.Errorf("Unary = %v", r.Rows())
	}
	if r := g.RandomGraph(d, "G", 4, 100); r.Len() != 16 {
		t.Errorf("RandomGraph should clamp to %d, got %d", 16, r.Len())
	}
	if r := g.RandomRelation(d, "W", 2, 100, 2); r.Len() != 4 {
		t.Errorf("RandomRelation should clamp to 4, got %d", r.Len())
	}
	if !d.IsAbstractlyTagged() {
		t.Error("generated instances must be abstractly tagged")
	}
}

func TestTupleHelpers(t *testing.T) {
	tup := Tuple{"a", "b"}
	if tup.String() != "(a,b)" {
		t.Errorf("String = %q", tup.String())
	}
	if !tup.Equal(Tuple{"a", "b"}) || tup.Equal(Tuple{"a"}) || tup.Equal(Tuple{"a", "c"}) {
		t.Error("Equal is wrong")
	}
	c := tup.Clone()
	c[0] = "z"
	if tup[0] != "a" {
		t.Error("Clone must copy")
	}
}
