package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// settings are the parts of an invocation every workload run shares.
type settings struct {
	bin     string // directory holding the provmind and provrouter binaries
	work    string // scratch directory for data directories and logs
	seconds int    // measured time of one run: open-loop plus closed-loop phase
	setups  int    // set-ups per run; setup_s is their median
	smoke   bool   // 1 s phases and one set-up
}

// phases splits the measured time: a quarter goes to the closed-loop
// phase, the rest to the open-loop phase, and an untimed warm-up of an
// eighth (at least a second) runs first to fill the caches.
func (s *settings) phases() (warm, open, closed time.Duration) {
	if s.smoke {
		return time.Second, time.Second, time.Second
	}
	total := time.Duration(s.seconds) * time.Second
	return max(time.Second, total/8), total - total/4, total / 4
}

// setupsPerRun is how many times a run sets up; setup_s is the median.
const setupsPerRun = 9

// closedPrefill is how many times the offered rate the closed-loop phase
// is generated ahead for. On the reference machine the servers answered up
// to about 8 times the rate (hot-core on a quiet host). A closed loop that
// runs out ends early (see closedLoop) and warns, and peak_rps is taken over
// the time it ran, so a gain in capacity still shows.
const closedPrefill = 8

// oracleEvery is the sampling period of the read-only workloads' oracle:
// a read is checked when its position in the stream is a multiple of it.
const oracleEvery = 64

// runWorkload runs one workload once: set-up (repeated), warm-up,
// open-loop and closed-loop phases, then the oracle checks.
func runWorkload(ctx context.Context, s *settings, wl *workload, seed int64, traced bool) (*result, error) {
	// The open loop's generator keeps its P while it sleeps between
	// requests (see sleepUntil), so the connections get one more.
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	warm, openLen, closedLen := s.phases()
	var stages []stage
	last := time.Now()
	lap := func(name string) {
		now := time.Now()
		stages = append(stages, stage{name, now.Sub(last).Seconds()})
		last = now
	}
	texts := instanceTexts(seed, wl.instances)
	orc, err := newOracle(texts)
	if err != nil {
		return nil, err
	}
	st, err := newStream(wl, seed, texts)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(s.work, "run", fmt.Sprintf("%s-%d", wl.name, os.Getpid()))
	defer os.RemoveAll(dir)

	// Set up several times, half before the load (keeping the last
	// cluster for it) and half after: setup_s is the median, and the
	// machine's speed drifts over seconds, so set-ups run back to back all
	// landed in one phase of the drift.
	var cl *cluster
	var setups []float64
	setUpAgain := func(keep bool) error {
		c, d, err := setUp(ctx, s.bin, filepath.Join(dir, strconv.Itoa(len(setups))), wl, texts)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if !keep {
			c.stop()
			return nil
		}
		if cl != nil {
			cl.stop()
		}
		cl = c
		return nil
	}
	for i := 0; i < (s.setups+1)/2; i++ {
		if err := setUpAgain(true); err != nil {
			return nil, err
		}
	}
	defer cl.stop()
	lap("set-up")

	keep := func(r *request) bool { return wl.sinkWrites && r.kind.isRead() && r.seq%oracleEvery == 0 }
	lc := newLoadClient(cl.target, traced, keep)
	defer lc.close()
	warmReqs := st.take(int(wl.rate * warm.Seconds()))
	openReqs := st.take(int(wl.rate * openLen.Seconds()))
	// Generating fresh queries runs MinProv on each and leaves garbage; a
	// collection during the open loop delayed the generator's wake-ups.
	runtime.GC()
	lap("generate")
	wp := lc.openLoop(ctx, warmReqs, wl.rate)
	lap("warm-up")
	nodes0, router0, err := cl.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	op := lc.openLoop(ctx, openReqs, wl.rate)
	nodes1, router1, err := cl.scrape()
	if err != nil {
		return nil, err
	}
	lap("open loop")
	closedReqs := st.take(int(closedPrefill * wl.rate * closedLen.Seconds()))
	runtime.GC()
	lap("generate")
	cp := lc.closedLoop(ctx, closedReqs, closedLen)
	lap("closed loop")
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	hwm, err := cl.hwmMiB()
	if err != nil {
		return nil, err
	}
	disk, err := cl.diskBytes()
	if err != nil {
		return nil, err
	}

	res := newResult(wl, seed, traced, s, cl)
	phases := []*phase{wp, op, cp}
	facts := float64(wl.instances * graphEdges)
	for _, r := range ackedIngests(phases) {
		if err := orc.ingest(r); err != nil {
			return nil, err
		}
		facts += float64(len(r.facts))
	}
	for _, p := range phases {
		res.Attempted += len(p.reqs)
		res.Failed += p.failed()
	}

	diskPerFact := 0.0
	if len(cl.data) > 0 {
		diskPerFact = float64(disk) / facts
	}
	res.PerLayer = layerMetrics(op, nodes1.since(nodes0), router1.since(router0), cl.router != nil, diskPerFact)
	if traced {
		probes, err := runProbes(wl, op.reqs, orc, filepath.Join(dir, "probe"))
		if err != nil {
			return nil, err
		}
		res.PerLayer = append(res.PerLayer, probes...)
		lap("probes")
	}

	checked, mismatches, err := checkAnswers(wl, cl, orc, phases)
	if err != nil {
		return nil, err
	}
	lap("oracle")
	cl.stop()
	for len(setups) < s.setups {
		if err := setUpAgain(false); err != nil {
			return nil, err
		}
	}
	lap("set-up")
	res.Run.Stages, res.Run.SetupS, res.Run.ClosedS = stages, setups, cp.length.Seconds()
	res.Run.StealShare = cpu1.stealShareSince(cpu0)
	res.Checked, res.Mismatches = checked, len(mismatches)
	res.Failed += len(mismatches)
	res.Problems = append(res.Problems, mismatches...)
	res.EndToEnd, res.Diagnostics = endToEnd(setups, op, cp, hwm, len(cl.procs()))
	res.Diagnostics = append(res.Diagnostics,
		metric{"error_rate", float64(res.Failed) / float64(res.Attempted), "ratio", res.Attempted},
		metric{"disk_bytes_per_fact", diskPerFact, "B/fact", int(facts)},
	)
	res.Correct = res.Failed == 0
	problems, warnings := validity(wl, res.PerLayer, res.Run.StealShare)
	if cp.length < closedLen {
		warnings = append(warnings, fmt.Sprintf("the closed loop sent all %d requests generated for it in %.1fs of %.0fs; peak_rps is over that time", len(cp.reqs), cp.length.Seconds(), closedLen.Seconds()))
	}
	res.Problems, res.Warnings = append(res.Problems, problems...), warnings
	return res, nil
}

// endToEnd returns the end-to-end metrics of a run: the gated ones, which
// are the end_to_end list of BENCHMARK.json, and the diagnostics printed
// beside them. Read latency and capacity are diagnostics because on the
// reference machine they did not repeat within a 10% bound (see
// benchmark/README.md, "Repeatability").
func endToEnd(setups []float64, op, cp *phase, hwm float64, procs int) (gated, diag []metric) {
	reads := op.latencies(isRead, false)
	writes := op.latencies(isWrite, false)
	gated = []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"write_p50_ms", finite(percentile(writes, 0.50)), "ms", len(writes)},
		{"rss_mb", hwm, "MiB", procs},
	}
	diag = []metric{
		{"read_p50_ms", finite(percentile(reads, 0.50)), "ms", len(reads)},
		{"read_p90_ms", finite(percentile(reads, 0.90)), "ms", len(reads)},
		{"write_p90_ms", finite(percentile(writes, 0.90)), "ms", len(writes)},
		{"peak_rps", float64(cp.completed()) / cp.length.Seconds(), "req/s", cp.completed()},
	}
	diag = append(diag, tailLatencies("read", reads)...)
	return gated, append(diag, tailLatencies("write", writes)...)
}

// setUp starts wl's processes and seeds the instances; its duration runs
// from spawning the first process to every instance created and /healthz
// answering.
func setUp(ctx context.Context, bin, dir string, wl *workload, texts []string) (*cluster, time.Duration, error) {
	start := time.Now()
	cl, err := startCluster(ctx, bin, dir, wl)
	if err != nil {
		return nil, 0, err
	}
	for i, t := range texts {
		body := mustJSON(map[string]string{"id": instanceID(i), "initial": t})
		if _, err := post(cl.target+"/instances", body, 201); err != nil {
			cl.stop()
			return nil, 0, fmt.Errorf("create %s: %w", instanceID(i), err)
		}
	}
	if wl.sinkWrites {
		if _, err := post(cl.target+"/instances", mustJSON(map[string]string{"id": sinkInstanceID}), 201); err != nil {
			cl.stop()
			return nil, 0, fmt.Errorf("create %s: %w", sinkInstanceID, err)
		}
	}
	if err := cl.procs()[len(cl.procs())-1].waitHealthy(ctx); err != nil {
		cl.stop()
		return nil, 0, err
	}
	return cl, time.Since(start), nil
}

// ackedIngests returns the acknowledged ingests of all phases in stream
// order.
func ackedIngests(phases []*phase) []*request {
	var out []*request
	for _, p := range phases {
		for i, r := range p.reqs {
			if r.kind == kindIngest && p.samples[i].ok() {
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Write workloads check checkQueries queries of every instance, rotating
// through the catalogue, and compare /core with /core?direct=true on one
// query of directChecks instances spread over them. The direct
// construction grows much faster than evaluation with the answer: on
// instances the writes had tripled, it passed a minute for one query. So
// the direct check takes the instance's first query with fewer than
// directMaxDerivations derivations on the final mirror, if it has one.
const (
	checkQueries         = 4
	directChecks         = 8
	directMaxDerivations = 2000
)

// checkAnswers runs the oracle after the timed phases, so checking never
// competes with the load for the cores. Read-only workloads check the
// sampled responses. Write workloads check instances at the end against
// the mirror, and /core against /core?direct=true: the p-minimal query of
// Theorem 4.6 against the direct construction of Theorem 5.1.
func checkAnswers(wl *workload, cl *cluster, orc *oracle, phases []*phase) (checked int, mismatches []string, err error) {
	if wl.sinkWrites {
		for _, p := range phases {
			for i, r := range p.reqs {
				if p.samples[i].body == nil {
					continue
				}
				checked++
				if err := orc.check(r, p.samples[i].body); err != nil {
					mismatches = append(mismatches, err.Error())
				}
			}
		}
		return checked, mismatches, nil
	}
	cat := catalogue()
	directEvery := max(1, wl.instances/directChecks)
	for inst := 0; inst < wl.instances; inst++ {
		id := instanceID(inst)
		direct := inst%directEvery == 0
		g := newGraph(orc.mirrors[inst].Lookup("R"))
		for j := 0; j < checkQueries; j++ {
			q := cat[instanceQuery(inst, j, checkQueries)]
			body, err := post(cl.target+"/core", mustJSON(map[string]string{"instance": id, "query": q.String()}), 200)
			if err != nil {
				return 0, nil, err
			}
			checked++
			r := &request{kind: kindCore, inst: inst, text: q.String(), path: "/core"}
			if err := orc.check(r, body); err != nil {
				mismatches = append(mismatches, err.Error())
				continue
			}
			if !direct || g.derivations(q, directMaxDerivations) >= directMaxDerivations {
				continue
			}
			direct = false
			dbody, err := post(cl.target+"/core", mustJSON(map[string]any{"instance": id, "query": q.String(), "direct": true}), 200)
			if err != nil {
				return 0, nil, err
			}
			checked++
			a, errA := tuplesOf(body)
			b, errB := tuplesOf(dbody)
			if errA != nil || errB != nil || string(a) != string(b) {
				mismatches = append(mismatches, fmt.Sprintf("/core on %s %q differs from /core?direct=true: %.200s vs %.200s", id, q, a, b))
			}
		}
	}
	return checked, mismatches, nil
}

// Limits on the load generator and the machine. A run that releases too
// few requests on schedule is invalid. A lag p99 above maxLagP99Ms only
// warns: on the reference machine the host at times stalled the whole VM
// for up to 18 ms, generator and servers alike, and since latency runs from
// the due time such a run shows the stall in its latencies instead of
// hiding it. A steal share above maxStealShare warns too: on the reference
// machine the host took 1% of an idle VM's CPU time in quiet hours and up
// to 19% of a loaded one's in busy ones, which doubled read_p50_ms.
const (
	maxLagP99Ms     = 5.0
	minAchievedRate = 0.99
	maxStealShare   = 0.05
)

// validity checks that the open loop ran as scheduled and that the
// workload exercised the layers it was chosen for: the problems make the
// run invalid, the warnings do not.
func validity(wl *workload, layers []metric, steal float64) (problems, warnings []string) {
	m := map[string]float64{}
	for _, x := range layers {
		m[x.Name] = x.Value
	}
	var bad []string
	if v := m["loadgen.lag_p99_ms"]; v > maxLagP99Ms {
		warnings = append(warnings, fmt.Sprintf("generator lag p99 %.3f ms > %.0f ms: the machine stalled the load", v, maxLagP99Ms))
	}
	if steal > maxStealShare {
		warnings = append(warnings, fmt.Sprintf("the host stole %.1f%% of CPU time > %.0f%%: the run measured a contended machine", steal*100, maxStealShare*100))
	}
	if v := m["loadgen.achieved_rps"]; v < minAchievedRate*wl.rate {
		bad = append(bad, fmt.Sprintf("invalid: achieved %.1f req/s < %.0f%% of %.0f", v, minAchievedRate*100, wl.rate))
	}
	need := func(ok bool, what string) {
		if !ok {
			bad = append(bad, "invalid: layer not exercised: "+what)
		}
	}
	switch wl.name {
	case "hot-core":
		need(m["engine.result_hit_ratio"] >= 0.95, fmt.Sprintf("engine.result_hit_ratio %.3f < 0.95", m["engine.result_hit_ratio"]))
		need(m["minimize.minprov_calls"] == 0, fmt.Sprintf("minimize.minprov_calls %.0f != 0", m["minimize.minprov_calls"]))
	case "cold-eval":
		need(m["engine.result_hit_ratio"] <= 0.05, fmt.Sprintf("engine.result_hit_ratio %.3f > 0.05", m["engine.result_hit_ratio"]))
		need(m["engine.min_hit_ratio"] <= 0.05, fmt.Sprintf("engine.min_hit_ratio %.3f > 0.05", m["engine.min_hit_ratio"]))
	case "durable-ingest":
		need(m["engine.result_promotions"] > 0, "engine.result_promotions = 0")
		// A read that lands between a batch's apply and the promotion of
		// the entry it wants finds the entry stale and drops it, so a few
		// invalidations are the engine working as designed; a mix that
		// re-tagged tuples would invalidate every entry on every batch.
		need(m["engine.result_invalidations"] <= 0.01*m["engine.result_promotions"],
			fmt.Sprintf("engine.result_invalidations %.0f > 1%% of %.0f promotions", m["engine.result_invalidations"], m["engine.result_promotions"]))
	case "routed-tiered":
		need(m["tier.faultins"] > 0, "tier.faultins = 0")
		need(m["cluster.proxied"] > 0, "cluster.proxied = 0")
	}
	return bad, warnings
}

// tailLatencies returns the diagnostics p99, and p999 when at least ten
// samples lie beyond it. They are printed but not gated: p99 of a 30 s
// run varied by half between runs of one commit.
func tailLatencies(name string, sorted []float64) []metric {
	out := []metric{{name + "_p99_ms", finite(percentile(sorted, 0.99)), "ms", len(sorted)}}
	if len(sorted) >= 10_000 {
		out = append(out, metric{name + "_p999_ms", finite(percentile(sorted, 0.999)), "ms", len(sorted)})
	}
	return out
}

// finite maps +Inf, the latency of a failed request, to the largest
// float64, so a run with failures still encodes as JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
