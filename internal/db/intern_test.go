package db

import (
	"fmt"
	"testing"
)

func TestSymbolTableInternLookupValue(t *testing.T) {
	s := NewSymbolTable()
	a := s.Intern("a")
	b := s.Intern("b")
	empty := s.Intern("") // the empty string is a legal domain value
	if a == invalidID || b == invalidID || empty == invalidID {
		t.Fatalf("reserved id assigned: a=%d b=%d empty=%d", a, b, empty)
	}
	if a == b || a == empty || b == empty {
		t.Fatalf("distinct values shared an id: a=%d b=%d empty=%d", a, b, empty)
	}
	if got := s.Intern("a"); got != a {
		t.Fatalf("re-intern of a: got %d want %d", got, a)
	}
	if id, ok := s.Lookup("b"); !ok || id != b {
		t.Fatalf("Lookup(b) = %d,%v want %d,true", id, ok, b)
	}
	if _, ok := s.Lookup("missing"); ok {
		t.Fatal("Lookup of a never-interned value succeeded")
	}
	if got := s.Value(empty); got != "" {
		t.Fatalf("Value(empty) = %q", got)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d want 3", s.Len())
	}
	if got := s.Symbols(); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "" {
		t.Fatalf("Symbols = %q", got)
	}
}

func TestRelationInternedRowsTrackAddDelete(t *testing.T) {
	d := NewInstance()
	r := d.MustRelation("R", 2)
	r.MustAdd("t1", "x", "y")
	r.MustAdd("t2", "y", "z")
	r.MustAdd("t3", "x", "z")
	checkAligned := func() {
		t.Helper()
		for i, row := range r.Rows() {
			ids := r.RowIDs(i)
			for c, v := range row.Tuple {
				if d.Symbols().Value(ids[c]) != v {
					t.Fatalf("row %d col %d: id %d resolves to %q want %q",
						i, c, ids[c], d.Symbols().Value(ids[c]), v)
				}
			}
		}
	}
	checkAligned()

	// Tag overwrite must not grow the interned storage.
	before := len(r.ids)
	r.MustAdd("t1b", "x", "y")
	if len(r.ids) != before {
		t.Fatalf("tag overwrite grew ids: %d -> %d", before, len(r.ids))
	}
	checkAligned()

	// Deleting a middle row must splice ids in lockstep with rows.
	if !r.Delete("y", "z") {
		t.Fatal("Delete(y,z) missed")
	}
	if r.Len() != 2 || len(r.ids) != 2*r.Arity {
		t.Fatalf("after delete: rows=%d ids=%d", r.Len(), len(r.ids))
	}
	checkAligned()

	// The id index reflects the post-delete state.
	xid, _ := d.Symbols().Lookup("x")
	rows := r.RowsWithID(0, xid)
	if len(rows) != 2 {
		t.Fatalf("RowsWithID(0,x) = %v want both remaining rows", rows)
	}
}

func TestSeedSymbolsRoundTrip(t *testing.T) {
	src := NewInstance()
	r := src.MustRelation("R", 2)
	r.MustAdd("t1", "c", "a")
	r.MustAdd("t2", "a", "b")

	dst := NewInstance()
	if err := dst.SeedSymbols(src.Symbols().Symbols()); err != nil {
		t.Fatal(err)
	}
	nr := dst.MustRelation("R", 2)
	nr.MustAdd("t1", "c", "a")
	nr.MustAdd("t2", "a", "b")
	for i := range r.Rows() {
		for c := range r.Rows()[i].Tuple {
			if r.RowIDs(i)[c] != nr.RowIDs(i)[c] {
				t.Fatalf("row %d col %d: seeded id %d != original %d",
					i, c, nr.RowIDs(i)[c], r.RowIDs(i)[c])
			}
		}
	}

	if err := dst.SeedSymbols([]string{"zzz"}); err == nil {
		t.Fatal("SeedSymbols on a non-empty table succeeded")
	}
	if err := NewInstance().SeedSymbols([]string{"a", "a"}); err == nil {
		t.Fatal("SeedSymbols with a duplicate succeeded")
	}
}

func TestDistinctEstimateTracksCardinality(t *testing.T) {
	d := NewInstance()
	r := d.MustRelation("R", 2)
	n := 500
	for i := 0; i < n; i++ {
		// Column 0: all distinct. Column 1: exactly 10 distinct values.
		r.MustAdd(fmt.Sprintf("t%d", i), fmt.Sprintf("k%d", i), fmt.Sprintf("g%d", i%10))
	}
	hi, ok := r.DistinctEstimate(0)
	if !ok {
		t.Fatal("no estimate for instance relation")
	}
	lo, _ := r.DistinctEstimate(1)
	// The sketch has ~13% standard error; assert loose brackets and, more
	// importantly, that the planner can tell the two columns apart.
	if hi < float64(n)/2 || hi > float64(n) {
		t.Fatalf("column 0 estimate %.0f for %d distinct", hi, n)
	}
	if lo < 2 || lo > 40 {
		t.Fatalf("column 1 estimate %.0f for 10 distinct", lo)
	}
	if hi < 5*lo {
		t.Fatalf("estimates cannot rank columns: hi=%.0f lo=%.0f", hi, lo)
	}

	if _, ok := r.DistinctEstimate(2); ok {
		t.Fatal("out-of-range column reported statistics")
	}
	if _, ok := d.MustRelation("S", 1).DistinctEstimate(0); ok {
		t.Fatal("empty relation reported statistics")
	}
}
