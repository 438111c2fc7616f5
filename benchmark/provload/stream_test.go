package main

import (
	"bytes"
	"math"
	"testing"
)

func TestStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			gen := func(seed int64) []*request {
				st, err := newStream(wl, seed, instanceTexts(seed, wl.instances))
				if err != nil {
					t.Fatal(err)
				}
				return st.take(400)
			}
			a, b, c := gen(7), gen(7), gen(8)
			differs := false
			for i := range a {
				if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
					t.Fatalf("request %d differs between two streams of seed 7:\n%s %s\n%s %s", i, a[i].path, a[i].body, b[i].path, b[i].body)
				}
				differs = differs || a[i].path != c[i].path || !bytes.Equal(a[i].body, c[i].body)
			}
			if !differs {
				t.Fatal("seeds 7 and 8 gave the same stream")
			}
		})
	}
}

func TestDeckHoldsTheMix(t *testing.T) {
	for _, wl := range workloads {
		d := wl.deck()
		writes := 0
		for _, s := range d {
			if s.kind == kindIngest {
				writes++
				if wl.sinkWrites != (s.inst < 0) {
					t.Errorf("%s: ingest into instance %d, sink writes %t", wl.name, s.inst, wl.sinkWrites)
				}
			}
		}
		if share := float64(writes) / float64(len(d)); math.Abs(share-wl.writeShare) > 0.01 {
			t.Errorf("%s: write share %.3f of %d requests, want %.2f", wl.name, share, len(d), wl.writeShare)
		}
	}
	counts := apportion(10, []float64{1, 1, 1})
	if counts[0]+counts[1]+counts[2] != 10 || counts[0] != 4 {
		t.Errorf("apportion(10, equal thirds) = %v, want [4 3 3]", counts)
	}
}
