package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"provmin/internal/eval"
	"provmin/internal/persist"
	"provmin/internal/query"
)

// durableEngine opens (or reopens) a durable engine over dir. The returned
// engine is NOT registered for cleanup — crash tests abandon it without
// Close, exactly like a SIGKILL would.
func durableEngine(t *testing.T, dir string, shards int) *Engine {
	t.Helper()
	l, err := persist.Open(persist.Options{Dir: dir, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Workers: 2, CacheSize: 8, IngestBatchSize: 8, Persist: l})
}

func coreString(t *testing.T, e *Engine, id, q string) (string, uint64) {
	t.Helper()
	out, err := e.Core(context.Background(), id, query.MustParseUnion(q))
	if err != nil {
		t.Fatal(err)
	}
	return out.Result.String(), out.Version
}

// TestRecoveryAfterAbandon is the in-process SIGKILL: acknowledged state
// must survive an engine that is never closed (WAL fsynced on ack, buffers
// never flushed by a shutdown path).
func TestRecoveryAfterAbandon(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, 4)
	id := mustCreate(t, e, paperInstance)
	if err := e.Ingest(id, []Fact{
		{Rel: "R", Tag: "r4", Values: []string{"b", "b"}},
		{Rel: "S", Tag: "s1", Values: []string{"a"}},
	}); err != nil {
		t.Fatal(err)
	}
	id2 := mustCreate(t, e, "")
	if err := e.Ingest(id2, []Fact{{Rel: "T", Tag: "t1", Values: []string{"x"}}}); err != nil {
		t.Fatal(err)
	}
	wantCore, wantVer := coreString(t, e, id, paperQuery)
	wantInfos := e.Instances()
	// Abandon e: no Close, no flush — the process "dies" here.

	e2 := durableEngine(t, dir, 4)
	defer e2.Close()
	gotInfos := e2.Instances()
	if len(gotInfos) != len(wantInfos) {
		t.Fatalf("recovered %d instances, want %d", len(gotInfos), len(wantInfos))
	}
	for i := range wantInfos {
		if gotInfos[i] != wantInfos[i] {
			t.Errorf("instance %d: recovered %+v, want %+v", i, gotInfos[i], wantInfos[i])
		}
	}
	gotCore, gotVer := coreString(t, e2, id, paperQuery)
	if gotCore != wantCore || gotVer != wantVer {
		t.Errorf("core after recovery:\n%s (v%d)\nwant:\n%s (v%d)", gotCore, gotVer, wantCore, wantVer)
	}

	// The recovered registry is live: new ids don't collide, ingest works.
	id3 := mustCreate(t, e2, "")
	if id3 == id || id3 == id2 {
		t.Fatalf("recovered engine reused instance id %s", id3)
	}
	if err := e2.Ingest(id, []Fact{{Rel: "R", Tag: "r9", Values: []string{"z", "z"}}}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryDropsStayDropped: a logged drop must not resurrect.
func TestRecoveryDropsStayDropped(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, 2)
	keep := mustCreate(t, e, paperInstance)
	gone := mustCreate(t, e, "")
	if ok, err := e.DropInstance(gone); !ok || err != nil {
		t.Fatalf("drop: ok=%t err=%v", ok, err)
	}

	e2 := durableEngine(t, dir, 2)
	defer e2.Close()
	if _, ok := e2.Instance(gone); ok {
		t.Errorf("dropped instance %s resurrected", gone)
	}
	if _, ok := e2.Instance(keep); !ok {
		t.Errorf("kept instance %s lost", keep)
	}
}

// TestSnapshotCompactThenRecover: compaction must not lose state, and
// post-compaction writes must layer correctly over the snapshot.
func TestSnapshotCompactThenRecover(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, 2)
	id := mustCreate(t, e, paperInstance)
	if err := e.Ingest(id, []Fact{{Rel: "R", Tag: "r4", Values: []string{"c", "c"}}}); err != nil {
		t.Fatal(err)
	}
	stats, err := e.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instances != 1 || !stats.Compacted {
		t.Fatalf("compact stats = %+v", stats)
	}
	if err := e.Ingest(id, []Fact{{Rel: "R", Tag: "r5", Values: []string{"d", "d"}}}); err != nil {
		t.Fatal(err)
	}
	want, wantVer := coreString(t, e, id, paperQuery)

	e2 := durableEngine(t, dir, 2)
	defer e2.Close()
	got, gotVer := coreString(t, e2, id, paperQuery)
	if got != want || gotVer != wantVer {
		t.Errorf("after compact+crash: core %q (v%d), want %q (v%d)", got, gotVer, want, wantVer)
	}
	info, _ := e2.Instance(id)
	if info.Tuples != 5 {
		t.Errorf("tuples = %d, want 5", info.Tuples)
	}
}

// TestRecoveryGenerationExact: with -wal-sync always and concurrent
// writers, the generation counter — the stamp result-cache correctness
// hangs on — must be restored exactly from snapshot + WAL after a crash,
// and queries at the recovered generation must re-materialize (never serve
// pre-crash cache state) with byte-identical results.
func TestRecoveryGenerationExact(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, 2)
	id := mustCreate(t, e, paperInstance)
	const writers, per = 6, 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := fmt.Sprintf("g%d_%d", g, i)
				if err := e.Ingest(id, []Fact{{Rel: "R", Tag: "t" + v, Values: []string{v, v}}}); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	pre, _ := e.Instance(id)
	if pre.Version == 0 {
		t.Fatal("no ingest batch bumped the generation")
	}
	// Warm the result cache, then crash (abandon without Close).
	preCore, preVer := coreString(t, e, id, paperQuery)
	if preVer != pre.Version {
		t.Fatalf("core generation %d != instance generation %d", preVer, pre.Version)
	}

	e2 := durableEngine(t, dir, 2)
	defer e2.Close()
	got, _ := e2.Instance(id)
	if got.Version != pre.Version || got.Tuples != pre.Tuples {
		t.Fatalf("recovered (gen=%d tuples=%d), want (gen=%d tuples=%d)",
			got.Version, got.Tuples, pre.Version, pre.Tuples)
	}
	gotCore, gotVer := coreString(t, e2, id, paperQuery)
	if gotCore != preCore || gotVer != preVer {
		t.Errorf("core after recovery: %q (gen %d), want %q (gen %d)", gotCore, gotVer, preCore, preVer)
	}
	if hits := e2.Metrics().Counter("engine_result_cache_hits_total").Value(); hits != 0 {
		t.Errorf("recovered engine served %d result-cache hits before any warm-up", hits)
	}
}

// TestRecoveryGenerationInterval: under -wal-sync interval the fsync is a
// background tick; a crash loses exactly the suffix written after the last
// tick. Concurrent ingest runs before a deterministic tick (Log.Sync), a
// small unsynced suffix lands after it, and recovery must restore exactly
// the synced prefix — generation included.
func TestRecoveryGenerationInterval(t *testing.T) {
	dir := t.TempDir()
	l, err := persist.Open(persist.Options{
		Dir: dir, Shards: 2,
		Sync:         persist.SyncInterval,
		SyncInterval: time.Hour, // the only "tick" is the explicit Sync below
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 2, IngestBatchSize: 8, Persist: l})
	id := mustCreate(t, e, paperInstance)
	const writers, per = 4, 6
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := fmt.Sprintf("g%d_%d", g, i)
				if err := e.Ingest(id, []Fact{{Rel: "R", Tag: "t" + v, Values: []string{v, v}}}); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	synced, _ := e.Instance(id)
	if err := l.Sync(); err != nil { // the interval tick
		t.Fatal(err)
	}
	// Acknowledged but unsynced suffix: small enough to stay in the WAL's
	// write buffer, so the "crash" below genuinely loses it.
	for i := 0; i < 3; i++ {
		v := fmt.Sprintf("late%d", i)
		if err := e.Ingest(id, []Fact{{Rel: "R", Tag: "t" + v, Values: []string{v, v}}}); err != nil {
			t.Fatal(err)
		}
	}

	e2 := durableEngine(t, dir, 2)
	defer e2.Close()
	got, _ := e2.Instance(id)
	if got.Version != synced.Version || got.Tuples != synced.Tuples {
		t.Fatalf("recovered (gen=%d tuples=%d), want synced prefix (gen=%d tuples=%d)",
			got.Version, got.Tuples, synced.Version, synced.Tuples)
	}
}

// TestEphemeralSnapshotRefused pins the ErrNoPersistence contract.
func TestEphemeralSnapshotRefused(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Snapshot(); err != ErrNoPersistence {
		t.Errorf("Snapshot on ephemeral engine: %v, want ErrNoPersistence", err)
	}
	if e.Durable() {
		t.Error("ephemeral engine claims durability")
	}
}

// TestFailedWALIngestNotApplied: when the WAL write fails, the ingest must
// be rejected AND invisible — memory never runs ahead of disk.
func TestFailedWALIngestNotApplied(t *testing.T) {
	dir := t.TempDir()
	l, err := persist.Open(persist.Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 2, IngestBatchSize: 4, Persist: l})
	defer e.Close()
	id := mustCreate(t, e, paperInstance)

	l.InjectWriteError(fmt.Errorf("disk gone"))
	err = e.Ingest(id, []Fact{{Rel: "R", Tag: "rX", Values: []string{"q", "q"}}})
	if err == nil {
		t.Fatal("ingest acknowledged despite WAL failure")
	}
	info, _ := e.Instance(id)
	if info.Tuples != 3 || info.Version != 0 {
		t.Errorf("unlogged ingest visible: %+v", info)
	}
	l.InjectWriteError(nil)
	if err := e.Ingest(id, []Fact{{Rel: "R", Tag: "rY", Values: []string{"q", "q"}}}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRegistryConcurrent hammers create/drop/lookup across stripes.
func TestShardedRegistryConcurrent(t *testing.T) {
	e := New(Config{Workers: 2, Shards: 4})
	defer e.Close()
	var wg sync.WaitGroup
	ids := make([][]string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				info, err := e.CreateInstance("")
				if err != nil {
					t.Error(err)
					return
				}
				ids[g] = append(ids[g], info.ID)
				if i%3 == 0 {
					e.DropInstance(info.ID)
					ids[g] = ids[g][:len(ids[g])-1]
				}
				if _, err := e.lookup(info.ID); i%3 != 0 && err != nil {
					t.Errorf("lookup %s: %v", info.ID, err)
				}
			}
		}(g)
	}
	wg.Wait()
	want := 0
	seen := map[string]bool{}
	for _, group := range ids {
		for _, id := range group {
			if seen[id] {
				t.Fatalf("duplicate instance id %s", id)
			}
			seen[id] = true
			want++
		}
	}
	if got := len(e.Instances()); got != want {
		t.Fatalf("instances = %d, want %d", got, want)
	}
	if g := e.Metrics().Gauge("engine_instances").Value(); g != int64(want) {
		t.Errorf("engine_instances gauge = %d, want %d", g, want)
	}
	if e.Metrics().Gauge("engine_shards").Value() != 4 {
		t.Error("engine_shards gauge wrong")
	}
	if e.Metrics().Gauge("engine_shard_max_instances").Value() < e.Metrics().Gauge("engine_shard_min_instances").Value() {
		t.Error("shard occupancy gauges inverted")
	}
}

// TestShardDistribution: with enough instances every stripe is occupied.
func TestShardDistribution(t *testing.T) {
	e := New(Config{Workers: 2, Shards: 8})
	defer e.Close()
	for i := 0; i < 200; i++ {
		if _, err := e.CreateInstance(""); err != nil {
			t.Fatal(err)
		}
	}
	if min := e.Metrics().Gauge("engine_shard_min_instances").Value(); min == 0 {
		t.Error("some stripe got no instances out of 200 — bad hash spread")
	}
}

// TestAllOrNothingIngest pins the transactional request semantics: one bad
// fact rejects its whole request, and a valid concurrent-batch neighbor
// still lands.
func TestAllOrNothingIngest(t *testing.T) {
	e := newTestEngine(t)
	id := mustCreate(t, e, "")
	err := e.Ingest(id, []Fact{
		{Rel: "R", Tag: "r1", Values: []string{"a", "b"}}, // valid alone
		{Rel: "R", Tag: "r2", Values: []string{"a"}},      // arity clash
	})
	if err == nil {
		t.Fatal("mixed-arity request accepted")
	}
	info, _ := e.Instance(id)
	if info.Tuples != 0 {
		t.Errorf("rejected request partially applied: %d tuples", info.Tuples)
	}
	if err := e.Ingest(id, []Fact{{Rel: "R", Tag: "r3", Values: []string{"x", "y"}}}); err != nil {
		t.Fatal(err)
	}
	info, _ = e.Instance(id)
	if info.Tuples != 1 || info.Version != 1 {
		t.Errorf("valid follow-up: %+v", info)
	}
}

// TestDurableIngestConcurrent: many writers over several durable instances;
// everything acked must be there after a crash, with matching versions.
func TestDurableIngestConcurrent(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, 4)
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, mustCreate(t, e, ""))
	}
	const writers, per = 8, 15
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := fmt.Sprintf("g%d_%d", g, i)
				if err := e.Ingest(ids[g%len(ids)], []Fact{{Rel: "R", Tag: "t" + v, Values: []string{v}}}); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	want := e.Instances()
	// Crash.
	e2 := durableEngine(t, dir, 4)
	defer e2.Close()
	got := e2.Instances()
	total := 0
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("instance %s: recovered %+v, want %+v", want[i].ID, got[i], want[i])
		}
		total += got[i].Tuples
	}
	if total != writers*per {
		t.Errorf("recovered %d tuples, want %d", total, writers*per)
	}
}

// TestSymbolTableSurvivesRecovery: interned symbol ids are part of durable
// state (snapshot envelopes carry the table, WAL replay re-interns in
// apply order), so a recovered instance must answer queries
// byte-identically to a freshly interned copy of itself, and every stored
// row id must still resolve to the value the writer interned — across the
// snapshot, the compacted-WAL suffix, and a post-recovery ingest.
func TestSymbolTableSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, 4)
	id := mustCreate(t, e, paperInstance)
	// Values with empty strings and separator bytes: the symbols that make
	// naive serialization or rebuilding go wrong first.
	if err := e.Ingest(id, []Fact{
		{Rel: "R", Tag: "r4", Values: []string{"b", ""}},
		{Rel: "R", Tag: "r5", Values: []string{"a\x1f", "b"}},
	}); err != nil {
		t.Fatal(err)
	}
	// Snapshot + compact: recovery below must seed symbols from the
	// envelope, not rebuild them from replayed WAL records.
	if _, err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot suffix: replay must extend the seeded table.
	if err := e.Ingest(id, []Fact{{Rel: "R", Tag: "r6", Values: []string{"", "c"}}}); err != nil {
		t.Fatal(err)
	}
	q := query.MustParseUnion("ans(x,y) :- R(x,y), R(y,x); ans(x,x) :- R(x,'')")
	want, _ := coreString(t, e, id, "ans(x) :- R(x,y), R(y,x)")
	wantQ, err := e.Query(context.Background(), id, q)
	if err != nil {
		t.Fatal(err)
	}
	// Abandon e: no Close, no flush — the process "dies" here.

	e2 := durableEngine(t, dir, 4)
	defer e2.Close()
	got, _ := coreString(t, e2, id, "ans(x) :- R(x,y), R(y,x)")
	if got != want {
		t.Errorf("recovered core diverges:\n%s\nvs\n%s", got, want)
	}
	gotQ, err := e2.Query(context.Background(), id, q)
	if err != nil {
		t.Fatal(err)
	}
	if gotQ.Result.String() != wantQ.Result.String() {
		t.Errorf("recovered query diverges:\n%s\nvs\n%s", gotQ.Result, wantQ.Result)
	}

	in, err := e2.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	in.mu.RLock()
	// Every stored id must resolve back to the value it was interned from,
	// and evaluation must agree with a freshly interned copy of the
	// recovered db.
	for _, rel := range in.db.Relations() {
		for i, row := range rel.Rows() {
			for c, v := range row.Tuple {
				if got := in.db.Symbols().Value(rel.RowIDs(i)[c]); got != v {
					t.Fatalf("%s row %d col %d: recovered id resolves to %q want %q",
						rel.Name, i, c, got, v)
				}
			}
		}
	}
	recovered, err := eval.EvalUCQ(q, in.db)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := eval.EvalUCQ(q, in.db.Clone())
	if err != nil {
		t.Fatal(err)
	}
	in.mu.RUnlock()
	if recovered.String() != fresh.String() {
		t.Errorf("recovered instance diverges from a freshly interned copy:\n%s\nvs\n%s",
			recovered, fresh)
	}

	// The recovered table keeps interning: new values get fresh ids, old
	// values their existing ones.
	if err := e2.Ingest(id, []Fact{{Rel: "R", Tag: "r7", Values: []string{"c", "zz"}}}); err != nil {
		t.Fatal(err)
	}
	got2, err := e2.Query(context.Background(), id, query.MustParseUnion("ans(x) :- R('', x), R(x, 'zz')"))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Result.Len() != 1 {
		t.Errorf("post-recovery ingest not joinable through recovered symbols:\n%s", got2.Result)
	}
}
