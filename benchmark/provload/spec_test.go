package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSpecMatchesTheMetrics checks that BENCHMARK.json names workloads
// provload has, and exactly the metrics a run reports, with the same units,
// in the same order: the end-to-end ones of an untraced run and the
// per-layer ones of a traced run.
func TestSpecMatchesTheMetrics(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Error("BENCHMARK.json names no workload")
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which provload does not have", w.Name)
		}
	}

	empty := &phase{length: time.Second}
	gated, _ := endToEnd([]float64{1}, empty, empty, 1, 1)
	sameMetrics(t, "end_to_end", spec.EndToEnd, gated)

	wl := workloads[0]
	texts := instanceTexts(1, wl.instances)
	st, err := newStream(wl, 1, texts)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle(texts)
	if err != nil {
		t.Fatal(err)
	}
	probes, err := runProbes(wl, st.take(100), orc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	layers := append(layerMetrics(empty, series{}, series{}, false, 0), probes...)
	sameMetrics(t, "per_layer", spec.PerLayer, layers)
}

func sameMetrics(t *testing.T, list string, spec, got []metric) {
	t.Helper()
	if len(spec) != len(got) {
		t.Errorf("%s: BENCHMARK.json has %d metrics, a run reports %d", list, len(spec), len(got))
	}
	for i := 0; i < min(len(spec), len(got)); i++ {
		if spec[i].Name != got[i].Name || spec[i].Unit != got[i].Unit {
			t.Errorf("%s %d: BENCHMARK.json %s (%s), run %s (%s)", list, i, spec[i].Name, spec[i].Unit, got[i].Name, got[i].Unit)
		}
	}
}
