package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuartilesMatchPython checks quartiles against Python's
// statistics.quantiles(data, n=4), which the acceptance of a benchmark
// spread is defined by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{0.3, 0.1}, 0.05, 0.2, 0.35},
		{[]float64{7, 1, 3}, 1, 3, 7},
	} {
		q1, q2, q3 := quartiles(c.data)
		if d := max(q1-c.q1, c.q1-q1, q2-c.q2, c.q2-q2, q3-c.q3, c.q3-q3); d > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v, want %v, %v, %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	runsOf := func(wl, name string, vs ...float64) []*result {
		var rs []*result
		for _, v := range vs {
			rs = append(rs, &result{Workload: wl, Correct: true, EndToEnd: []metric{{Name: name, Value: v}}})
		}
		return rs
	}
	runs := func(wl string, vs ...float64) []*result { return runsOf(wl, "read_p50_ms", vs...) }
	bounds := []bound{
		{Name: "read_p50_ms", Better: "lower", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}
	for _, c := range []struct {
		name    string
		a, b    []float64
		verdict string
	}{
		{"read_p50_ms", []float64{1, 1.01, 0.99, 1, 1}, []float64{1.05, 1.04, 1.06, 1.05, 1.05}, "within bound"},
		{"read_p50_ms", []float64{1, 1.01, 0.99, 1, 1}, []float64{1.2, 1.21, 1.19, 1.2, 1.2}, "worse"},
		{"read_p50_ms", []float64{1, 1.01, 0.99, 1, 1}, []float64{0.8, 1.2, 1, 0.7, 1.3}, "unresolved"},
		// setup_s may also move by 0.05 s, which a 0.02 s set-up's
		// spread never reaches.
		{"setup_s", []float64{0.02, 0.014, 0.021, 0.019, 0.013}, []float64{0.03, 0.025, 0.021, 0.028, 0.019}, "within bound"},
		{"setup_s", []float64{0.02, 0.014, 0.021, 0.019, 0.013}, []float64{0.09, 0.08, 0.085, 0.088, 0.082}, "worse"},
		{"setup_s", []float64{0.4, 0.41, 0.39, 0.4, 0.4}, []float64{0.55, 0.56, 0.54, 0.55, 0.55}, "worse"},
	} {
		var out bytes.Buffer
		agree := compareResults(&out, runsOf("hot-core", c.name, c.a...), runsOf("hot-core", c.name, c.b...), bounds)
		if !strings.Contains(out.String(), c.name) || !strings.Contains(out.String(), c.verdict) || agree != (c.verdict == "within bound") {
			t.Errorf("%s: A %v, B %v: got %q (agree %t), want %q", c.name, c.a, c.b, out.String(), agree, c.verdict)
		}
	}

	// Invalid runs carry no metrics into the medians, so B losing runs
	// must show in the runs row rather than vanish.
	invalid := func(rs []*result, n int) []*result {
		for _, r := range rs[:n] {
			r.Correct = false
		}
		return rs
	}
	good := []float64{1, 1.01, 0.99, 1, 1}
	for _, c := range []struct {
		name string
		a, b []*result
		want string
	}{
		{"B all invalid", runs("hot-core", good...), invalid(runs("hot-core", good...), 5), "0/5"},
		{"B more invalid", invalid(runs("hot-core", good...), 1), invalid(runs("hot-core", good...), 2), "3/2"},
	} {
		var out bytes.Buffer
		if compareResults(&out, c.a, c.b, bounds) {
			t.Errorf("%s: compare agreed:\n%s", c.name, out.String())
		}
		row := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "runs valid/invalid") {
				row = l
			}
		}
		if !strings.Contains(row, c.want) || !strings.HasSuffix(strings.TrimSpace(row), "worse") {
			t.Errorf("%s: runs row %q, want B %s and worse", c.name, row, c.want)
		}
	}
}
