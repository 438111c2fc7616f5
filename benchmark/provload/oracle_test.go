package main

import (
	"bytes"
	"fmt"
	"testing"
)

func TestOracleRejectsACorruptedCore(t *testing.T) {
	orc, err := newOracle([]string{"R r1 a a\nR r2 a b\nR r3 b a\n"})
	if err != nil {
		t.Fatal(err)
	}
	r := &request{kind: kindCore, inst: 0, text: "ans(x) :- R(x,y), R(y,x)", path: "/core"}
	want, err := orc.expect(r.kind, r.inst, r.text)
	if err != nil {
		t.Fatal(err)
	}
	// The core of (a) is r1 + r2*r3, where the query's own provenance
	// is r1^2 + r2*r3.
	if !bytes.Contains(want, []byte(`"provenance":"r1 + r2*r3"`)) {
		t.Fatalf("oracle core = %s", want)
	}
	body := func(tuples []byte) []byte {
		return []byte(fmt.Sprintf(`{"cache_hit":false,"instance":"b0","tuples":%s,"version":0}`, tuples))
	}
	if err := orc.check(r, body(want)); err != nil {
		t.Fatalf("correct body rejected: %v", err)
	}
	for _, bad := range [][]byte{
		bytes.Replace(want, []byte("r1 + r2*r3"), []byte("r1^2 + r2*r3"), 1), // the provenance, not the core
		bytes.Replace(want, []byte(`["a"]`), []byte(`["b"]`), 1),             // a wrong tuple
		bytes.Replace(want, []byte(" + "), []byte("+"), 1),                   // same polynomial, other bytes
		[]byte("[]"),
	} {
		if err := orc.check(r, body(bad)); err == nil {
			t.Errorf("corrupted tuples %s accepted", bad)
		}
	}
	if err := orc.check(r, []byte(`{"instance":"b0"}`)); err == nil {
		t.Error("body without tuples accepted")
	}
}
