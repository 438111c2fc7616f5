package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"provmin/internal/db"
	"provmin/internal/eval"
	"provmin/internal/persist"
	"provmin/internal/query"
)

// shadowApply mirrors an engine ingest batch onto a plain instance, the
// reference state for differential checks.
func shadowApply(t *testing.T, d *db.Instance, facts []Fact) {
	t.Helper()
	for _, f := range facts {
		if err := persist.ApplyFact(d, f); err != nil {
			t.Fatalf("shadow apply %v: %v", f, err)
		}
	}
}

// coldEval evaluates u cold against the shadow instance.
func coldEval(t *testing.T, u *query.UCQ, d *db.Instance) string {
	t.Helper()
	res, err := eval.EvalUCQ(u, d)
	if err != nil {
		t.Fatal(err)
	}
	return res.String()
}

// TestMaintainDifferentialFixed is the tentpole acceptance test: across a
// fixed sequence of additive ingest batches, every warmed /query entry —
// including a UCQ≠, which stays monotone under pure insertion — is
// promoted (still a cache hit, flagged maintained, at the new generation)
// and its result is byte-identical to a cold re-evaluation of the same
// facts.
func TestMaintainDifferentialFixed(t *testing.T) {
	e := newTestEngine(t)
	id := mustCreate(t, e, paperInstance)
	shadow, err := db.ParseInstance(paperInstance)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	queries := []*query.UCQ{
		query.MustParseUnion(paperQuery),
		query.MustParseUnion("ans(x) :- R(x,y), R(y,x), x != y\nans(x) :- R(x,x)"),
	}
	for _, u := range queries {
		if _, err := e.Query(ctx, id, u); err != nil {
			t.Fatal(err)
		}
	}

	batches := [][]Fact{
		{{Rel: "R", Tag: "g1", Values: []string{"b", "b"}}},
		// two rows that join with each other — the delta-rule
		// double-counting trap
		{{Rel: "R", Tag: "g2", Values: []string{"c", "d"}}, {Rel: "R", Tag: "g3", Values: []string{"d", "c"}}},
		// a batch creating a new relation the queries never mention:
		// promotion is a pure restamp
		{{Rel: "S", Tag: "g4", Values: []string{"a"}}},
	}
	for i, facts := range batches {
		if err := e.Ingest(id, facts); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		shadowApply(t, shadow, facts)
		for _, u := range queries {
			out, err := e.Query(ctx, id, u)
			if err != nil {
				t.Fatal(err)
			}
			if !out.CacheHit || !out.MaintainedHit {
				t.Fatalf("batch %d query %s: hit=%t maintained=%t, want promoted hit", i, u, out.CacheHit, out.MaintainedHit)
			}
			if got, want := out.Result.String(), coldEval(t, u, shadow); got != want {
				t.Fatalf("batch %d query %s: promoted result diverges from cold evaluation\npromoted:\n%s\ncold:\n%s", i, u, got, want)
			}
		}
	}

	if p := e.Metrics().Counter("engine_result_cache_promotions_total").Value(); p < int64(len(batches)) {
		t.Errorf("promotions = %d, want >= %d", p, len(batches))
	}
	if n := e.Metrics().Histogram("engine_delta_eval_seconds").Count(); n == 0 {
		t.Error("engine_delta_eval_seconds never observed")
	}
	if st := e.ResultCacheStatsNow(); st.Promotions == 0 {
		t.Errorf("stats: promotions=%d", st.Promotions)
	}
}

// TestMaintainDifferentialRandomized interleaves randomized additive
// batches with queries and checks every served result byte-for-byte
// against a cold evaluation of the shadow state.
func TestMaintainDifferentialRandomized(t *testing.T) {
	queries := []*query.UCQ{
		query.MustParseUnion("ans(x) :- R(x,y), R(y,x)"),
		query.MustParseUnion("ans(x) :- R(x,y), R(y,z), R(x,w)"),
		query.MustParseUnion("ans(x,z) :- R(x,y), S(y), R(y,z)"),
		query.MustParseUnion("ans(x) :- R(x,y), R(y,x), x != y\nans(x) :- R(x,x)"),
	}
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dom := []string{"a", "b", "c", "d", "e"}
			e := newTestEngine(t)
			id := mustCreate(t, e, paperInstance)
			shadow, err := db.ParseInstance(paperInstance)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			tagN := 0
			for step := 0; step < 60; step++ {
				if rng.Intn(2) == 0 {
					var facts []Fact
					for i := 0; i < 1+rng.Intn(3); i++ {
						tagN++
						tag := fmt.Sprintf("z%d", tagN)
						if rng.Intn(4) == 0 {
							facts = append(facts, Fact{Rel: "S", Tag: tag, Values: []string{dom[rng.Intn(len(dom))]}})
						} else {
							facts = append(facts, Fact{Rel: "R", Tag: tag, Values: []string{dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))]}})
						}
					}
					if err := e.Ingest(id, facts); err != nil {
						t.Fatal(err)
					}
					shadowApply(t, shadow, facts)
				} else {
					u := queries[rng.Intn(len(queries))]
					out, err := e.Query(ctx, id, u)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := out.Result.String(), coldEval(t, u, shadow); got != want {
						t.Fatalf("step %d query %s (hit=%t maintained=%t):\ngot:\n%s\nwant:\n%s",
							step, u, out.CacheHit, out.MaintainedHit, got, want)
					}
				}
			}
		})
	}
}

// TestMaintainConcurrentReaders runs queries concurrently with ingests and
// checks every result against the expected state of the generation it
// claims — the promote-vs-put race under real interleavings (meaningful
// chiefly under -race).
func TestMaintainConcurrentReaders(t *testing.T) {
	e := newTestEngine(t)
	id := mustCreate(t, e, paperInstance)
	ctx := context.Background()
	u := query.MustParseUnion(paperQuery)

	// Precompute the expected result at every generation. Ingest batches
	// of one fact each keep generation = base + number of applied facts
	// (Ingest returns after its batch is applied, so applying them
	// sequentially pins the mapping even though batching is timing-based).
	shadow, err := db.ParseInstance(paperInstance)
	if err != nil {
		t.Fatal(err)
	}
	out0, err := e.Query(ctx, id, u)
	if err != nil {
		t.Fatal(err)
	}
	base := out0.Version
	const nBatches = 40
	facts := make([]Fact, nBatches)
	expected := map[uint64]string{base: coldEval(t, u, shadow)}
	for i := range facts {
		facts[i] = Fact{Rel: "R", Tag: fmt.Sprintf("c%d", i), Values: []string{fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1)}}
		shadowApply(t, shadow, facts[i:i+1])
		expected[base+uint64(i)+1] = coldEval(t, u, shadow)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				out, err := e.Query(ctx, id, u)
				if err != nil {
					errs <- err.Error()
					return
				}
				want, ok := expected[out.Version]
				if !ok {
					errs <- fmt.Sprintf("unexpected generation %d", out.Version)
					return
				}
				if got := out.Result.String(); got != want {
					errs <- fmt.Sprintf("generation %d (hit=%t maintained=%t): wrong result\ngot:\n%s\nwant:\n%s",
						out.Version, out.CacheHit, out.MaintainedHit, got, want)
					return
				}
			}
		}()
	}
	for i := range facts {
		if err := e.Ingest(id, facts[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	// The final state must also be byte-identical to a cold evaluation.
	out, err := e.Query(ctx, id, u)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.Result.String(), expected[base+nBatches]; got != want {
		t.Fatalf("final result:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMaintainOverwriteFallsBack: a batch that replaces an existing
// tuple's tag is a mutation, not an insertion — the whole batch must fall
// back to invalidation, and the next query must see the new tag.
func TestMaintainOverwriteFallsBack(t *testing.T) {
	e := newTestEngine(t)
	id := mustCreate(t, e, paperInstance)
	ctx := context.Background()
	u := query.MustParseUnion(paperQuery)
	if _, err := e.Query(ctx, id, u); err != nil {
		t.Fatal(err)
	}
	// paperInstance already holds R(a,a) tagged r1; retag it.
	if err := e.Ingest(id, []Fact{
		{Rel: "R", Tag: "new", Values: []string{"a", "a"}},
		{Rel: "R", Tag: "extra", Values: []string{"b", "b"}},
	}); err != nil {
		t.Fatal(err)
	}
	out, err := e.Query(ctx, id, u)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit || out.MaintainedHit {
		t.Fatalf("tag-replacing batch was maintained: hit=%t maintained=%t", out.CacheHit, out.MaintainedHit)
	}
	d, err := db.ParseInstance(paperInstance)
	if err != nil {
		t.Fatal(err)
	}
	d.Lookup("R").MustAdd("new", "a", "a")
	d.MustAdd("R", "extra", "b", "b")
	if got, want := out.Result.String(), coldEval(t, u, d); got != want {
		t.Fatalf("result after overwrite fallback:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if p := e.Metrics().Counter("engine_result_cache_promotions_total").Value(); p != 0 {
		t.Errorf("promotions = %d, want 0", p)
	}
}

// TestMaintainArityConflictInvalidates: a batch creating a relation whose
// arity conflicts with a cached query's atom flips that query from
// vacuously-empty to erroring — the entry must be dropped, not promoted.
func TestMaintainArityConflictInvalidates(t *testing.T) {
	e := newTestEngine(t)
	id := mustCreate(t, e, paperInstance)
	ctx := context.Background()
	u := query.MustParseUnion("ans(x) :- R(x,y), T(x)") // T absent: empty result
	out, err := e.Query(ctx, id, u)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Len() != 0 {
		t.Fatalf("query over missing relation not empty: %s", out.Result)
	}
	// Create T with arity 2 — the cached query's T(x) now errors.
	if err := e.Ingest(id, []Fact{{Rel: "T", Tag: "t1", Values: []string{"a", "b"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx, id, u); err == nil {
		t.Fatal("expected arity error after T was created with arity 2")
	}
	// A matching-arity creation is maintainable: U(x) with arity 1.
	u2 := query.MustParseUnion("ans(x) :- R(x,x), U(x)")
	if _, err := e.Query(ctx, id, u2); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(id, []Fact{{Rel: "U", Tag: "u1", Values: []string{"a"}}}); err != nil {
		t.Fatal(err)
	}
	out2, err := e.Query(ctx, id, u2)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.CacheHit || !out2.MaintainedHit {
		t.Fatalf("matching-arity creation not maintained: hit=%t maintained=%t", out2.CacheHit, out2.MaintainedHit)
	}
	if out2.Result.Len() != 1 {
		t.Fatalf("maintained result after U creation:\n%s", out2.Result)
	}
}

// TestMaintainCoreEntries: /core caches under the p-minimal form — a UCQ≠
// in general, since p-minimization introduces disequalities systematically
// — and that entry rides the same promotion path as /query entries.
func TestMaintainCoreEntries(t *testing.T) {
	e := newTestEngine(t)
	id := mustCreate(t, e, paperInstance)
	ctx := context.Background()

	queries := []*query.UCQ{
		query.MustParseUnion("ans(x) :- R(x,y)"), // minimizes into a union with v1 != v2
		query.MustParseUnion(paperQuery),
	}
	for _, q := range queries {
		if _, err := e.Core(ctx, id, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Ingest(id, []Fact{{Rel: "R", Tag: "g1", Values: []string{"b", "b"}}}); err != nil {
		t.Fatal(err)
	}
	// Every core entry is promoted and byte-identical to a fully cold core
	// of the same facts.
	cold := newTestEngine(t)
	cid := mustCreate(t, cold, paperInstance+"\nR g1 b b")
	for _, q := range queries {
		out, err := e.Core(ctx, id, q)
		if err != nil {
			t.Fatal(err)
		}
		if !out.ResultCacheHit || !out.MaintainedHit {
			t.Fatalf("core %s after ingest: result hit=%t maintained=%t", q, out.ResultCacheHit, out.MaintainedHit)
		}
		coldOut, err := cold.Core(ctx, cid, q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := out.Result.String(), coldOut.Result.String(); got != want {
			t.Fatalf("maintained core %s diverges from cold core:\ngot:\n%s\nwant:\n%s", q, got, want)
		}
	}
}

// TestPromoteVsPutRace pins the ordering contract deterministically: a
// stale-generation put (a slow reader that evaluated before the batch)
// must never overwrite an entry a promotion already advanced.
func TestPromoteVsPutRace(t *testing.T) {
	e := newTestEngine(t)
	c := e.newResultCache()
	u := query.MustParseUnion(paperQuery)
	d, err := db.ParseInstance(paperInstance)
	if err != nil {
		t.Fatal(err)
	}
	oldRes, err := eval.EvalUCQ(u, d)
	if err != nil {
		t.Fatal(err)
	}
	c.put("k", 1, u, oldRes)

	d.MustAdd("R", "g1", "b", "b")
	delta, err := eval.EvalUCQDelta(u, d, map[string]int{"R": d.Lookup("R").Len() - 1})
	if err != nil {
		t.Fatal(err)
	}
	if !c.promote("k", 1, 2, delta) {
		t.Fatal("promotion failed")
	}
	promoted, maintained, ok := c.get("k", 2)
	if !ok || !maintained {
		t.Fatalf("promoted entry not served: ok=%t maintained=%t", ok, maintained)
	}

	// The stale put must lose; the promoted entry keeps serving.
	c.put("k", 1, u, oldRes)
	res, maintained, ok := c.get("k", 2)
	if !ok || !maintained {
		t.Fatalf("stale put displaced the promoted entry: ok=%t maintained=%t", ok, maintained)
	}
	if res.String() != promoted.String() {
		t.Fatal("promoted result changed after stale put")
	}

	// A same-generation put (a reader that evaluated at the promoted
	// generation) may replace the entry — and clears the maintained flag.
	fresh, err := eval.EvalUCQ(u, d)
	if err != nil {
		t.Fatal(err)
	}
	c.put("k", 2, u, fresh)
	res, maintained, ok = c.get("k", 2)
	if !ok || maintained {
		t.Fatalf("same-generation put: ok=%t maintained=%t", ok, maintained)
	}
	if res.String() != promoted.String() {
		t.Fatal("fresh evaluation at the promoted generation differs from the promoted result")
	}

	// Promoting an entry that is no longer at oldGen is a no-op.
	if c.promote("k", 1, 3, delta) {
		t.Fatal("promotion applied to an entry at the wrong generation")
	}
}

// TestMaintainNotTrustedAcrossRecovery: promoted entries live only in RAM.
// After a crash (engine abandoned, never closed) the rebuilt engine starts
// with a cold cache at the exact recovered generation; the first query is
// a miss whose result matches what the promoted entry served pre-crash.
func TestMaintainNotTrustedAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, 2)
	id := mustCreate(t, e, paperInstance)
	ctx := context.Background()
	u := query.MustParseUnion(paperQuery)
	if _, err := e.Query(ctx, id, u); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(id, []Fact{{Rel: "R", Tag: "g1", Values: []string{"b", "b"}}}); err != nil {
		t.Fatal(err)
	}
	out, err := e.Query(ctx, id, u)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit || !out.MaintainedHit {
		t.Fatalf("pre-crash query: hit=%t maintained=%t", out.CacheHit, out.MaintainedHit)
	}
	preCrash, preGen := out.Result.String(), out.Version

	// Crash: abandon without Close. Acknowledged writes are in the WAL.
	e2 := durableEngine(t, dir, 2)
	t.Cleanup(e2.Close)
	out2, err := e2.Query(ctx, id, u)
	if err != nil {
		t.Fatal(err)
	}
	if out2.CacheHit || out2.MaintainedHit {
		t.Fatalf("recovered engine served a cached result cold boot should not have: hit=%t maintained=%t",
			out2.CacheHit, out2.MaintainedHit)
	}
	if out2.Version != preGen {
		t.Fatalf("recovered generation %d, want %d", out2.Version, preGen)
	}
	if out2.Result.String() != preCrash {
		t.Fatalf("recovered result diverges from pre-crash promoted result:\nrecovered:\n%s\npre-crash:\n%s",
			out2.Result, preCrash)
	}
	e.Close() // release the abandoned engine's resources
}
