package main

import (
	"math"
	"os"
	"testing"
	"time"
)

func readScrape(t *testing.T, name string) series {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseSeries(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScrapeDeltas derives layer metrics from a golden pair of provmind
// scrapes taken before and after a phase.
func TestScrapeDeltas(t *testing.T) {
	before, after := readScrape(t, "before.prom"), readScrape(t, "after.prom")
	if got := after[`http_core_seconds_bucket{le="+Inf"}`]; got != 916 {
		t.Fatalf("labelled bucket sample = %v, want 916", got)
	}
	d := after.since(before)
	if got := d["engine_result_cache_promotions_total"]; got != 600 {
		t.Errorf("promotions delta = %v, want 600", got)
	}
	if got := d.mean("http_core_seconds"); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("core handler mean = %v ms, want 0.4", got)
	}
	if got := d.mean("engine_faultin_seconds"); got != 0 {
		t.Errorf("mean of an absent histogram = %v, want 0", got)
	}

	layers := layerMetrics(&phase{length: time.Second}, d, series{}, false, 0)
	want := map[string]float64{
		"server.core_ms":              0.4,
		"server.query_ms":             0.3,
		"server.ingest_ms":            3,
		"server.self_ms":              0.34,
		"engine.queue_wait_ms":        0.01,
		"engine.result_hit_ratio":     0.99,
		"engine.min_hit_ratio":        1,
		"engine.result_invalidations": 2,
		"engine.batch_facts":          2,
		"eval.eval_ms":                3,
		"eval.eval_calls":             10,
		"minimize.minprov_calls":      0,
		"persist.facts_per_fsync":     2,
		"persist.wal_bytes_per_fact":  85,
		"cluster.hop_ms":              0,
	}
	got := map[string]float64{}
	for _, m := range layers {
		got[m.Name] = m.Value
	}
	for name, w := range want {
		if v, ok := got[name]; !ok || math.Abs(v-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, v, w)
		}
	}
}
