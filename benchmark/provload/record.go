package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// metric is one measured value with its unit and sample count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is the record of one workload run, written as a result file.
type result struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Traced      bool     `json:"traced"`
	Correct     bool     `json:"correct"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Checked     int      `json:"oracle_checked"`
	Mismatches  int      `json:"oracle_mismatches"`
	Problems    []string `json:"problems,omitempty"`
	Warnings    []string `json:"warnings,omitempty"`
	EndToEnd    []metric `json:"end_to_end"`
	Diagnostics []metric `json:"diagnostics"`
	PerLayer    []metric `json:"per_layer"`
	Run         runInfo  `json:"run"`
}

// valid reports whether the run may be compared: its answers were right
// and it ran the load it was asked to.
func (r *result) valid() bool { return r.Correct && len(r.Problems) == 0 }

// runInfo records the machine and configuration a run used, so runs on
// different machines are never compared blind.
type runInfo struct {
	Commit      string     `json:"commit"`
	Dirty       bool       `json:"dirty"`
	GoVersion   string     `json:"go_version"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	NumCPU      int        `json:"nproc"`
	CPUModel    string     `json:"cpu_model"`
	FSType      string     `json:"data_fs_type"`
	Started     string     `json:"started"`
	RateRPS     float64    `json:"rate_rps"`
	Conns       int        `json:"connections"`
	ServerSched string     `json:"server_sched"`
	WarmupS     float64    `json:"warmup_s"`
	OpenS       float64    `json:"open_loop_s"`
	ClosedS     float64    `json:"closed_loop_s"`
	Setups      int        `json:"setups"`
	SetupS      []float64  `json:"setup_s"`
	Processes   []procInfo `json:"processes"`
	Stages      []stage    `json:"stages"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the timed phases.
	StealShare float64 `json:"steal_share"`
}

// stage is the wall time one step of a run took.
type stage struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

type procInfo struct {
	Name  string   `json:"name"`
	Flags []string `json:"flags"`
}

func newResult(wl *workload, seed int64, traced bool, s *settings, cl *cluster) *result {
	warm, open, closed := s.phases()
	info := runInfo{
		Commit:      "unknown",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		FSType:      fsType(s.work),
		Started:     time.Now().UTC().Format(time.RFC3339),
		RateRPS:     wl.rate,
		Conns:       conns,
		ServerSched: "SCHED_IDLE",
		WarmupS:     warm.Seconds(),
		OpenS:       open.Seconds(),
		ClosedS:     closed.Seconds(),
		Setups:      s.setups,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				info.Commit = kv.Value
			case "vcs.modified":
				info.Dirty = kv.Value == "true"
			}
		}
	}
	for _, p := range cl.procs() {
		info.Processes = append(info.Processes, procInfo{Name: p.name, Flags: p.args})
	}
	return &result{Workload: wl.name, Seed: seed, Traced: traced, Run: info}
}

// cpuTimes are the machine's CPU times in clock ticks, summed over its CPUs.
type cpuTimes struct{ total, steal float64 }

// readCPUTimes reads the "cpu" line of /proc/stat, whose eighth value is
// the time stolen by the hypervisor.
func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	// The values after the eighth, guest time, are already counted in
	// user and nice.
	var t cpuTimes
	for _, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
		t.total += v
		t.steal = v // the last of the eight is steal
	}
	return t, nil
}

func (t cpuTimes) stealShareSince(before cpuTimes) float64 {
	return per(t.steal-before.steal, t.total-before.total)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// print writes the human-readable report of a run.
func (r *result) print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "== %s seed=%d traced=%t: %.0f req/s open loop %.0fs, %d connections closed loop %.0fs\n",
		r.Workload, r.Seed, r.Traced, r.Run.RateRPS, r.Run.OpenS, r.Run.Conns, r.Run.ClosedS)
	section := func(title string, ms []metric) {
		fmt.Fprintf(tw, "  %s\n", title)
		for _, m := range ms {
			fmt.Fprintf(tw, "    %s\t%.4f\t%s\tn=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	section("end to end", r.EndToEnd)
	section("diagnostics (not gated)", r.Diagnostics)
	if r.Traced {
		section("per layer", r.PerLayer)
	}
	fmt.Fprintf(tw, "  stages:")
	for _, st := range r.Run.Stages {
		fmt.Fprintf(tw, " %s %.1fs", st.Name, st.Seconds)
	}
	fmt.Fprintf(tw, "\n  stolen by the host: %.1f%% of CPU time in the timed phases", r.Run.StealShare*100)
	fmt.Fprintf(tw, "\n  oracle: %d checked, %d mismatches; %d of %d requests failed\n", r.Checked, r.Mismatches, r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Fprintf(tw, "  PROBLEM: %s\n", p)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(tw, "  warning: %s\n", w)
	}
	_ = tw.Flush()
}

// summary is the line the last line of a single-workload run carries:
// end-to-end metrics untraced, per-layer metrics traced.
func (r *result) summary() ([]byte, error) {
	ms := r.EndToEnd
	if r.Traced {
		ms = r.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	for _, m := range ms {
		vals[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   vals,
	})
}

// save writes the result file into dir.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	suffix := ""
	if r.Traced {
		suffix = "-trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s%s.json", r.Workload, r.Seed, time.Now().UTC().Format("20060102T150405.000"), suffix)
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// loadResults reads every result file in dir.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

// bound is an end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	n := len(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// valuesOf collects an end-to-end or diagnostic metric of one workload
// across valid untraced runs.
func valuesOf(rs []*result, wl, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != wl || r.Traced || !r.valid() {
			continue
		}
		for _, m := range slices.Concat(r.EndToEnd, r.Diagnostics) {
			if m.Name == name {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// countRuns counts a workload's untraced runs in rs that are valid and
// invalid.
func countRuns(rs []*result, wl string) (valid, invalid int) {
	for _, r := range rs {
		switch {
		case r.Workload != wl || r.Traced:
		case r.valid():
			valid++
		default:
			invalid++
		}
	}
	return valid, invalid
}

// minWorsening is the least worsening, in the metric's unit, that counts
// against a metric, whatever its bound: setup_s may worsen by its bound or
// by 0.05 s, whichever is larger. A set-up takes about 0.02 s on one node,
// and over five runs of one commit its quartiles lay a quarter of the
// median apart.
var minWorsening = map[string]float64{"setup_s": 0.05}

// compareResults prints, per workload, each side's count of valid and
// invalid runs, and per gated metric each side's median and quartiles over
// the valid runs, the bound, and a verdict: "unresolved" when either side's
// quartile spread exceeds the bound, "worse" when B's median is worse than
// A's by more than the bound, else "within bound". A metric's bound is its
// share of the median from BENCHMARK.json, or its minWorsening if that is
// larger. The runs row is "worse" when B has no valid run or more invalid
// runs than A, since the medians then leave out what B broke. It returns
// whether every row is within bound.
func compareResults(w io.Writer, a, b []*result, bounds []bound) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] n\tB median [q1, q3] n\tB/A\tbound\tverdict")
	all := true
	for _, wl := range workloads {
		aOK, aBad := countRuns(a, wl.name)
		bOK, bBad := countRuns(b, wl.name)
		if aOK+aBad+bOK+bBad == 0 {
			continue
		}
		verdict := "within bound"
		switch {
		case bOK == 0 || bBad > aBad:
			verdict = "worse"
		case aOK == 0:
			verdict = "unresolved"
		}
		all = all && verdict == "within bound"
		fmt.Fprintf(tw, "%s\truns valid/invalid\t%d/%d\t%d/%d\t\t\t%s\n", wl.name, aOK, aBad, bOK, bBad, verdict)
		for _, bd := range bounds {
			av, bv := valuesOf(a, wl.name, bd.Name), valuesOf(b, wl.name, bd.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(av)
			b1, b2, b3 := quartiles(bv)
			allowed := func(median float64) float64 { return max(bd.Bound*median, minWorsening[bd.Name]) }
			worsening := b2 - a2
			if bd.Better == "higher" {
				worsening = -worsening
			}
			verdict := "within bound"
			switch {
			case a3-a1 > allowed(a2) || b3-b1 > allowed(b2):
				verdict = "unresolved"
			case worsening > allowed(a2):
				verdict = "worse"
			}
			all = all && verdict == "within bound"
			shown := fmt.Sprintf("%.0f%%", bd.Bound*100)
			if f, ok := minWorsening[bd.Name]; ok {
				shown += fmt.Sprintf(" or %g %s", f, bd.Unit)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%.3f\t%s\t%s\n",
				wl.name, bd.Name, a2, a1, a3, len(av), b2, b1, b3, len(bv), per(b2, a2), shown, verdict)
		}
	}
	_ = tw.Flush()
	return all
}

// report prints the medians and quartiles of a directory's untraced runs,
// the per-layer metrics of its traced runs, and the tracing overhead: the
// traced run's read p50 minus the untraced runs' median read p50.
func report(w io.Writer, rs []*result) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, wl := range workloads {
		var untraced []*result
		var traced *result
		for _, r := range rs {
			switch {
			case r.Workload != wl.name || !r.valid():
			case r.Traced:
				traced = r
			default:
				untraced = append(untraced, r)
			}
		}
		if len(untraced) == 0 && traced == nil {
			continue
		}
		fmt.Fprintf(tw, "== %s: %d valid untraced runs\n", wl.name, len(untraced))
		if len(untraced) > 0 {
			for _, m := range slices.Concat(untraced[0].EndToEnd, untraced[0].Diagnostics) {
				q1, q2, q3 := quartiles(valuesOf(untraced, wl.name, m.Name))
				fmt.Fprintf(tw, "  %s\t%.4f\t%s\t[%.4f, %.4f]\tspread %.1f%%\n", m.Name, q2, m.Unit, q1, q3, per(q3-q1, q2)*100)
			}
		}
		if traced == nil {
			continue
		}
		fmt.Fprintf(tw, "  per layer (traced run, seed %d)\n", traced.Seed)
		for _, m := range traced.PerLayer {
			fmt.Fprintf(tw, "    %s\t%.4f\t%s\tn=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
		if vs := valuesOf(rs, wl.name, "read_p50_ms"); len(vs) > 0 {
			_, q2, _ := quartiles(vs)
			for _, m := range traced.PerLayer {
				if m.Name == "client.read_p50_ms" {
					fmt.Fprintf(tw, "  tracing overhead on read_p50_ms\t%+.4f\tms\t(traced %.4f, untraced median %.4f)\n", m.Value-q2, m.Value, q2)
				}
			}
		}
	}
	_ = tw.Flush()
}
