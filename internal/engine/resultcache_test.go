package engine

import (
	"context"
	"testing"

	"provmin/internal/db"
	"provmin/internal/eval"
	"provmin/internal/metrics"
	"provmin/internal/query"
)

// TestResultCacheHitAndInvalidation pins the acceptance contract of the
// invalidation path: a repeat query at an unchanged generation is a hit
// serving the identical materialization; an ingest that overwrites a
// tuple's tag bumps the generation and invalidates; and the result served
// after invalidation is byte-identical to a cold evaluation of the same
// facts. The maintained path is pinned by maintain_test.go.
func TestResultCacheHitAndInvalidation(t *testing.T) {
	e := New(Config{Workers: 4, CacheSize: 8})
	t.Cleanup(e.Close)
	id := mustCreate(t, e, paperInstance)
	u := query.MustParseUnion(paperQuery)
	ctx := context.Background()

	out1, err := e.Query(ctx, id, u)
	if err != nil {
		t.Fatal(err)
	}
	if out1.CacheHit {
		t.Fatal("first query reported a result-cache hit")
	}
	out2, err := e.Query(ctx, id, u)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.CacheHit {
		t.Fatal("repeat query at unchanged generation missed the result cache")
	}
	if out2.Result != out1.Result {
		t.Fatal("cache hit returned a different materialization")
	}
	if out2.Version != out1.Version {
		t.Fatalf("generation moved without ingest: %d -> %d", out1.Version, out2.Version)
	}

	// Retagging R(a,a) is a mutation, not an insertion: the ingest bumps
	// the generation and the stale entry must not be served.
	if err := e.Ingest(id, []Fact{{Rel: "R", Tag: "r4", Values: []string{"a", "a"}}}); err != nil {
		t.Fatal(err)
	}
	out3, err := e.Query(ctx, id, u)
	if err != nil {
		t.Fatal(err)
	}
	if out3.CacheHit {
		t.Fatal("query after ingest served a stale cached result")
	}
	if out3.Version != out1.Version+1 {
		t.Fatalf("generation after one ingest batch = %d, want %d", out3.Version, out1.Version+1)
	}
	out4, err := e.Query(ctx, id, u)
	if err != nil {
		t.Fatal(err)
	}
	if !out4.CacheHit {
		t.Fatal("re-warmed query missed the result cache")
	}

	// Byte-identical to a cold evaluation of the same facts, outside any
	// engine or cache.
	d, err := db.ParseInstance(paperInstance)
	if err != nil {
		t.Fatal(err)
	}
	d.MustAdd("R", "r4", "a", "a")
	cold, err := eval.EvalUCQ(u, d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out4.Result.String(), cold.String(); got != want {
		t.Fatalf("cached result after invalidation diverges from cold evaluation:\ncached:\n%s\ncold:\n%s", got, want)
	}

	if inv := e.Metrics().Counter("engine_result_cache_invalidations_total").Value(); inv == 0 {
		t.Error("stale entry removal not counted as invalidation")
	}
	if hits := e.Metrics().Counter("engine_result_cache_hits_total").Value(); hits != 2 {
		t.Errorf("engine_result_cache_hits_total = %d, want 2", hits)
	}
}

// TestResultCacheNoAdjunctDedupCollision: evaluation is bag-style, so a
// union repeating an adjunct has doubled provenance coefficients versus
// the single-adjunct query — the two must not share a cache slot (the
// minimization cache's set-equivalence key would conflate them).
func TestResultCacheNoAdjunctDedupCollision(t *testing.T) {
	e := newTestEngine(t)
	id := mustCreate(t, e, "R r1 a a")
	ctx := context.Background()

	single := query.MustParseUnion("ans(x) :- R(x,x)")
	if _, err := e.Query(ctx, id, single); err != nil {
		t.Fatal(err)
	}
	dup := query.MustParseUnion("ans(x) :- R(x,x); ans(x) :- R(x,x)")
	out, err := e.Query(ctx, id, dup)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Fatal("duplicated-adjunct union hit the single-adjunct cache slot")
	}
	d, err := db.ParseInstance("R r1 a a")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := eval.EvalUCQ(dup, d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.Result.String(), cold.String(); got != want {
		t.Fatalf("duplicated-adjunct union served wrong coefficients:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestResultCacheSharedAcrossReadPaths: /core caches under the minimized
// form, and the tuple-provenance path behind /prob and /trust reuses the
// same materialization as /query.
func TestResultCacheSharedAcrossReadPaths(t *testing.T) {
	e := newTestEngine(t)
	id := mustCreate(t, e, paperInstance)
	ctx := context.Background()
	u := query.MustParseUnion(paperQuery)

	first, err := e.Core(ctx, id, u)
	if err != nil {
		t.Fatal(err)
	}
	if first.ResultCacheHit {
		t.Fatal("first core reported a result-cache hit")
	}
	second, err := e.Core(ctx, id, u)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || !second.ResultCacheHit {
		t.Fatalf("second core: min hit=%t result hit=%t, want both", second.CacheHit, second.ResultCacheHit)
	}
	if second.Result.String() != first.Result.String() {
		t.Fatal("cached core result diverges from cold core result")
	}

	// Warm the full-provenance materialization, then hit it from the
	// tuple-provenance path.
	if _, err := e.Query(ctx, id, u); err != nil {
		t.Fatal(err)
	}
	hitsBefore := e.Metrics().Counter("engine_result_cache_hits_total").Value()
	p, err := e.TupleProvenance(ctx, id, u, db.Tuple{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if p.IsZero() {
		t.Fatal("tuple provenance for (a) came back zero")
	}
	if hits := e.Metrics().Counter("engine_result_cache_hits_total").Value(); hits != hitsBefore+1 {
		t.Errorf("tuple provenance did not reuse the cached materialization: hits %d -> %d", hitsBefore, hits)
	}
}

// TestResultCacheBounds: the per-instance entry cap evicts LRU, a byte
// bound refuses oversized results, and a negative size disables caching.
func TestResultCacheBounds(t *testing.T) {
	e := New(Config{Workers: 2, ResultCacheSize: 2})
	t.Cleanup(e.Close)
	id := mustCreate(t, e, paperInstance)
	ctx := context.Background()
	queries := []string{
		"ans(x) :- R(x,y)",
		"ans(y) :- R(x,y)",
		"ans(x,y) :- R(x,y)",
	}
	for _, qt := range queries {
		if _, err := e.Query(ctx, id, query.MustParseUnion(qt)); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Metrics().Gauge("engine_result_cache_entries").Value(); n != 2 {
		t.Errorf("entries gauge = %d, want 2 (entry cap)", n)
	}
	if ev := e.Metrics().Counter("engine_result_cache_evictions_total").Value(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	// The least-recently-used entry (queries[0]) is the evicted one.
	if out, err := e.Query(ctx, id, query.MustParseUnion(queries[2])); err != nil || !out.CacheHit {
		t.Errorf("most-recent query evicted: hit=%v err=%v", out != nil && out.CacheHit, err)
	}
	if out, err := e.Query(ctx, id, query.MustParseUnion(queries[0])); err != nil || out.CacheHit {
		t.Errorf("least-recent query survived a full cache: hit=%v err=%v", out != nil && out.CacheHit, err)
	}

	// A byte bound below any result's cost caches nothing.
	tiny := New(Config{Workers: 2, ResultCacheBytes: 8})
	t.Cleanup(tiny.Close)
	tid := mustCreate(t, tiny, paperInstance)
	for i := 0; i < 2; i++ {
		out, err := tiny.Query(ctx, tid, query.MustParseUnion(paperQuery))
		if err != nil {
			t.Fatal(err)
		}
		if out.CacheHit {
			t.Error("oversized result was cached despite the byte bound")
		}
	}
	if n := tiny.Metrics().Gauge("engine_result_cache_bytes").Value(); n != 0 {
		t.Errorf("bytes gauge = %d, want 0", n)
	}

	// Negative size disables the cache entirely.
	off := New(Config{Workers: 2, ResultCacheSize: -1})
	t.Cleanup(off.Close)
	oid := mustCreate(t, off, paperInstance)
	for i := 0; i < 2; i++ {
		out, err := off.Query(ctx, oid, query.MustParseUnion(paperQuery))
		if err != nil {
			t.Fatal(err)
		}
		if out.CacheHit {
			t.Error("disabled result cache produced a hit")
		}
	}
}

// TestResultCacheStatsAndPurge: /admin/cache's backing snapshot reports
// occupancy per instance, and dropping an instance returns its entries and
// bytes to the engine-wide gauges.
func TestResultCacheStatsAndPurge(t *testing.T) {
	e := newTestEngine(t)
	id := mustCreate(t, e, paperInstance)
	ctx := context.Background()
	if _, err := e.Query(ctx, id, query.MustParseUnion(paperQuery)); err != nil {
		t.Fatal(err)
	}
	st := e.ResultCacheStatsNow()
	if !st.Enabled || st.Entries != 1 || st.Bytes <= 0 || st.Misses != 1 {
		t.Fatalf("stats after one miss: %+v", st)
	}
	if len(st.Instances) != 1 || st.Instances[0].ID != id || st.Instances[0].Entries != 1 {
		t.Fatalf("per-instance stats: %+v", st.Instances)
	}
	if ok, err := e.DropInstance(id); !ok || err != nil {
		t.Fatalf("drop: ok=%t err=%v", ok, err)
	}
	if n := e.Metrics().Gauge("engine_result_cache_entries").Value(); n != 0 {
		t.Errorf("entries gauge after drop = %d, want 0", n)
	}
	if n := e.Metrics().Gauge("engine_result_cache_bytes").Value(); n != 0 {
		t.Errorf("bytes gauge after drop = %d, want 0", n)
	}

	// A put that raced the drop (a query finishing after the purge) must
	// not land: the cache is unreachable, so the entry would pin its share
	// of the engine-wide gauges forever.
	d, err := db.ParseInstance(paperInstance)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eval.EvalUCQ(query.MustParseUnion(paperQuery), d)
	if err != nil {
		t.Fatal(err)
	}
	c := e.newResultCache()
	c.purge()
	c.put("k", 1, query.MustParseUnion(paperQuery), res)
	if entries, bytes := c.usage(); entries != 0 || bytes != 0 {
		t.Errorf("put after purge landed: entries=%d bytes=%d", entries, bytes)
	}
	if n := e.Metrics().Gauge("engine_result_cache_entries").Value(); n != 0 {
		t.Errorf("entries gauge after post-purge put = %d, want 0", n)
	}
}

// TestResultCacheSentinels pins the size-bound sentinel convention shared
// by every cache knob in the tree (engine resultCache here, the router
// response cache in internal/cluster): at the cache layer maxEntries <= 0
// disables caching entirely and maxBytes <= 0 removes the byte bound. The
// command-line flags sit one layer up and map an explicit 0 to the
// negative sentinel, because engine.Config/cluster.RouterConfig reserve 0
// for "use the default".
func TestResultCacheSentinels(t *testing.T) {
	d, err := db.ParseInstance(paperInstance)
	if err != nil {
		t.Fatal(err)
	}
	u := query.MustParseUnion(paperQuery)
	res, err := eval.EvalUCQ(u, d)
	if err != nil {
		t.Fatal(err)
	}
	cost := resultCost(res)

	cases := []struct {
		name       string
		maxEntries int
		maxBytes   int64
		wantCached bool
	}{
		{"disabled-zero-entries", 0, 1 << 20, false},
		{"disabled-negative-entries", -1, 1 << 20, false},
		{"unbounded-zero-bytes", 8, 0, true},
		{"unbounded-negative-bytes", 8, -1, true},
		{"byte-bound-rejects-oversized", 8, cost - 1, false},
		{"byte-bound-admits", 8, cost, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newResultCache(tc.maxEntries, tc.maxBytes, newResultCacheStats(metrics.NewRegistry()))
			c.put("k", 1, u, res)
			_, _, ok := c.get("k", 1)
			if ok != tc.wantCached {
				t.Fatalf("cached = %t, want %t", ok, tc.wantCached)
			}
		})
	}
}

// TestResultCacheDisabledCountersSilent: a disabled cache (entries <= 0)
// must answer get without touching the hit/miss counters — it has no hit
// ratio to report, and since the stats registry is engine-wide, counting
// every request as a miss would drown the ratios of enabled instances.
func TestResultCacheDisabledCountersSilent(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newResultCache(0, 0, newResultCacheStats(reg))
	for i := 0; i < 5; i++ {
		if _, _, ok := c.get("k", 1); ok {
			t.Fatal("disabled cache reported a hit")
		}
	}
	if n := reg.Counter("engine_result_cache_hits_total").Value(); n != 0 {
		t.Errorf("hits counter = %d, want 0", n)
	}
	if n := reg.Counter("engine_result_cache_misses_total").Value(); n != 0 {
		t.Errorf("misses counter = %d, want 0", n)
	}
}
