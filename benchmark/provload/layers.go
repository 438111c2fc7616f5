package main

import (
	"fmt"
	"os"
	"time"

	"provmin/internal/eval"
	"provmin/internal/minimize"
	"provmin/internal/persist"
	"provmin/internal/query"
)

// layerMetrics derives the per-layer metrics of the open-loop phase from
// the phase's own samples and the /metrics deltas across it: n summed over
// the provmind nodes, rt of the router. Histogram _sum and _count deltas
// give each layer's busy time and calls; counter deltas give ratios.
func layerMetrics(op *phase, n, rt series, routed bool, diskPerFact float64) []metric {
	var readN, writeN int
	var service time.Duration
	var served int
	var minHit, resultHit, maintained, routerHit int
	dispatched := 0
	for i, r := range op.reqs {
		s := &op.samples[i]
		if s.dispatched <= op.length {
			dispatched++
		}
		if s.ok() {
			service += s.done - s.sent
			served++
		}
		if !r.kind.isRead() {
			writeN++
			continue
		}
		readN++
		for _, f := range []struct {
			on bool
			n  *int
		}{{s.flags.minHit, &minHit}, {s.flags.resultHit, &resultHit}, {s.flags.maintained, &maintained}, {s.flags.routerHit, &routerHit}} {
			if f.on {
				*f.n++
			}
		}
	}
	lags := op.lags()
	reads := op.latencies(isRead, false)
	writes := op.latencies(isWrite, false)
	readService := op.latencies(isRead, true)

	// The client talks to the router when there is one, else to the node.
	handler := n.mean("http_request_seconds")
	if routed {
		handler = rt.mean("router_request_seconds")
	}
	readCalls := n["http_core_seconds_count"] + n["http_query_seconds_count"]
	selfMs := per((n["http_core_seconds_sum"]+n["http_query_seconds_sum"]-
		n["engine_queue_wait_seconds_sum"]-n["engine_minprov_seconds_sum"]-n["engine_eval_seconds_sum"])*1000, readCalls)
	facts := n["engine_ingest_facts_total"]
	faultins := n["engine_faultins_total"]
	routerMs := rt.mean("router_request_seconds")
	hopMs := 0.0
	if routed {
		hopMs = routerMs - per(n["http_request_seconds_sum"]*1000, rt["router_requests_total"])
	}

	return []metric{
		{"loadgen.lag_p50_ms", percentile(lags, 0.50), "ms", len(lags)},
		{"loadgen.lag_p99_ms", percentile(lags, 0.99), "ms", len(lags)},
		{"loadgen.achieved_rps", float64(dispatched) / op.length.Seconds(), "req/s", dispatched},
		{"client.read_p50_ms", finite(percentile(reads, 0.50)), "ms", readN},
		{"client.read_p99_ms", finite(percentile(reads, 0.99)), "ms", readN},
		{"client.write_p99_ms", finite(percentile(writes, 0.99)), "ms", writeN},
		{"client.read_n", float64(readN), "count", readN},
		{"client.write_n", float64(writeN), "count", writeN},
		{"client.read_service_p50_ms", finite(percentile(readService, 0.50)), "ms", readN},
		{"net.overhead_ms", per(ms(service), float64(served)) - handler, "ms", served},
		{"response.minprov_hit_ratio", per(float64(minHit), float64(readN)), "ratio", readN},
		{"response.result_hit_ratio", per(float64(resultHit), float64(readN)), "ratio", readN},
		{"response.maintained_hit_ratio", per(float64(maintained), float64(readN)), "ratio", readN},
		{"response.router_hit_ratio", per(float64(routerHit), float64(readN)), "ratio", readN},
		{"server.core_ms", n.mean("http_core_seconds"), "ms/call", int(n["http_core_seconds_count"])},
		{"server.query_ms", n.mean("http_query_seconds"), "ms/call", int(n["http_query_seconds_count"])},
		{"server.ingest_ms", n.mean("http_ingest_seconds"), "ms/call", int(n["http_ingest_seconds_count"])},
		{"server.self_ms", selfMs, "ms/req", int(readCalls)},
		{"engine.queue_wait_ms", n.mean("engine_queue_wait_seconds"), "ms/call", int(n["engine_queue_wait_seconds_count"])},
		{"engine.result_hit_ratio", share(n["engine_result_cache_hits_total"], n["engine_result_cache_misses_total"]), "ratio",
			int(n["engine_result_cache_hits_total"] + n["engine_result_cache_misses_total"])},
		{"engine.result_promotions", n["engine_result_cache_promotions_total"], "count", 1},
		{"engine.result_invalidations", n["engine_result_cache_invalidations_total"], "count", 1},
		{"engine.result_evictions", n["engine_result_cache_evictions_total"], "count", 1},
		{"engine.min_hit_ratio", share(n["engine_cache_hits_total"], n["engine_cache_misses_total"]), "ratio",
			int(n["engine_cache_hits_total"] + n["engine_cache_misses_total"])},
		{"engine.batch_facts", per(facts, n["persist_wal_records_total"]), "facts/record", int(n["persist_wal_records_total"])},
		{"minimize.minprov_ms", n.mean("engine_minprov_seconds"), "ms/call", int(n["engine_minprov_seconds_count"])},
		{"minimize.minprov_calls", n["engine_minprov_seconds_count"], "count", 1},
		{"eval.eval_ms", n.mean("engine_eval_seconds"), "ms/call", int(n["engine_eval_seconds_count"])},
		{"eval.eval_calls", n["engine_eval_seconds_count"], "count", 1},
		{"eval.delta_ms", n.mean("engine_delta_eval_seconds"), "ms/call", int(n["engine_delta_eval_seconds_count"])},
		{"persist.fsyncs", n["persist_wal_fsyncs_total"], "count", 1},
		{"persist.facts_per_fsync", per(facts, n["persist_wal_fsyncs_total"]), "facts/fsync", int(n["persist_wal_fsyncs_total"])},
		{"persist.wal_bytes_per_fact", per(n["persist_wal_bytes_total"], facts), "B/fact", int(facts)},
		{"persist.disk_bytes_per_fact", diskPerFact, "B/fact", 1},
		{"tier.faultins", faultins, "count", 1},
		{"tier.faultin_ms", n.mean("engine_faultin_seconds"), "ms/call", int(faultins)},
		{"tier.evictions", n["engine_evictions_total"], "count", 1},
		{"tier.evict_ms", n.mean("engine_evict_seconds"), "ms/call", int(n["engine_evictions_total"])},
		{"tier.faultins_per_read", per(faultins, float64(readN)), "ratio", readN},
		{"cluster.router_ms", routerMs, "ms/call", int(rt["router_request_seconds_count"])},
		{"cluster.hop_ms", hopMs, "ms/req", int(rt["router_requests_total"])},
		{"cluster.router_hit_ratio", per(rt["router_cache_hits_total"], float64(readN)), "ratio", readN},
		{"cluster.router_stale", rt["router_cache_stale_total"], "count", 1},
		{"cluster.proxied", rt["router_proxied_total"], "count", 1},
	}
}

// Probe sizes: the distinct reads timed per pass, the passes (the median
// pass is reported), and the WAL commits and blob round trips timed.
const (
	probeReads   = 64
	probePasses  = 3
	probeCommits = 200
	probeBlobs   = 20
)

// runProbes times direct calls into public functions, single-threaded, on
// the workload's own inputs: its read queries, its mirror instances and
// its ingest records.
func runProbes(wl *workload, reqs []*request, orc *oracle, dir string) ([]metric, error) {
	type read struct {
		inst int
		text string
		u    *query.UCQ
		min  *query.UCQ
	}
	var rs []read
	seen := map[string]bool{}
	var ingests [][]persist.Fact
	for _, r := range reqs {
		if !r.kind.isRead() {
			if len(ingests) < probeCommits {
				ingests = append(ingests, r.facts)
			}
			continue
		}
		key := fmt.Sprintf("%d\x00%s", r.inst, r.text)
		if len(rs) < probeReads && !seen[key] {
			seen[key] = true
			rs = append(rs, read{inst: r.inst, text: r.text})
		}
	}
	for i := range rs {
		u, err := query.ParseUnion(rs[i].text)
		if err != nil {
			return nil, err
		}
		rs[i].u, rs[i].min = u, minimize.MinProv(u)
	}
	var evalErr error
	parse := timePasses(len(rs), func(i int) {
		_, _ = query.ParseUnion(rs[i].text)
	})
	minprov := timePasses(len(rs), func(i int) { minimize.MinProv(rs[i].u) })
	evalUs := timePasses(len(rs), func(i int) {
		if _, err := eval.EvalUCQOpts(rs[i].min, orc.mirrors[rs[i].inst], eval.Options{}); err != nil {
			evalErr = err
		}
	})
	if evalErr != nil {
		return nil, evalErr
	}
	commit, err := probeCommit(wl, ingests, dir)
	if err != nil {
		return nil, err
	}
	st := persist.InstanceState{ID: instanceID(0), DB: orc.mirrors[0], Version: 1}
	blob, err := persist.EncodeInstanceBlob(st)
	if err != nil {
		return nil, err
	}
	var blobErr error
	encode := timePasses(probeBlobs, func(int) {
		if _, err := persist.EncodeInstanceBlob(st); err != nil {
			blobErr = err
		}
	})
	decode := timePasses(probeBlobs, func(int) {
		if _, err := persist.DecodeInstanceBlob(blob); err != nil {
			blobErr = err
		}
	})
	if blobErr != nil {
		return nil, blobErr
	}
	return []metric{
		{"query.parse_us", parse, "us/call", len(rs)},
		{"minimize.probe_us", minprov, "us/call", len(rs)},
		{"eval.probe_us", evalUs, "us/call", len(rs)},
		{"persist.commit_us", commit, "us/call", len(ingests)},
		{"persist.blob_encode_us", encode, "us/call", probeBlobs},
		{"persist.blob_decode_us", decode, "us/call", probeBlobs},
	}, nil
}

// timePasses calls f(0..n-1) probePasses times and returns the median
// pass's mean time per call in microseconds.
func timePasses(n int, f func(int)) float64 {
	if n == 0 {
		return 0
	}
	var means []float64
	for p := 0; p < probePasses; p++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		means = append(means, float64(time.Since(start))/float64(time.Microsecond)/float64(n))
	}
	return median(means)
}

// probeCommit times (*persist.Log).Commit of the workload's own ingest
// records in a fresh directory, with the workload's sync mode; a workload
// kept in memory is timed with provmind's default mode, always.
func probeCommit(wl *workload, ingests [][]persist.Fact, dir string) (float64, error) {
	if len(ingests) == 0 {
		return 0, nil
	}
	mode := persist.SyncAlways
	if wl.walSync != "" {
		m, err := persist.ParseSyncMode(wl.walSync)
		if err != nil {
			return 0, err
		}
		mode = m
	}
	log, err := persist.Open(persist.Options{Dir: dir, Sync: mode})
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	for i, facts := range ingests {
		rec := persist.Record{Op: persist.OpIngest, ID: instanceID(0), Facts: facts, Gen: uint64(i + 1)}
		if _, err := log.Commit(rec, nil); err != nil {
			log.Close()
			return 0, err
		}
	}
	us := float64(time.Since(start)) / float64(time.Microsecond) / float64(len(ingests))
	return us, log.Close()
}
