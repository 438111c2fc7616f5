package engine

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"provmin/internal/metrics"
	"provmin/internal/persist"
	"provmin/internal/tier"
)

// handoffEngine opens a durable engine over a *shared* cold backend — two
// of these with distinct data dirs model two cluster nodes sharing one blob
// store. owns filters boot adoption (nil adopts everything); adopt is the
// AdoptOnMiss policy. IngestBatchSize 1 makes every single-fact Ingest its
// own WAL record, so tests control sequence numbers precisely.
func handoffEngine(t *testing.T, dir string, backend tier.SnapshotBackend, owns func(string) bool, adopt func(string) AdoptMode) *Engine {
	t.Helper()
	reg := metrics.NewRegistry()
	l, err := persist.Open(persist.Options{Dir: dir, Shards: 4, Cold: backend, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{
		Workers: 2, CacheSize: 8, IngestBatchSize: 1,
		Persist: l, Backend: backend, JanitorInterval: -1, Metrics: reg, AdoptOnMiss: adopt,
	})
	if err := e.AdoptCold(context.Background(), owns); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestReleaseAdoptHandoff walks the full rebalance handoff: node A releases
// an instance into the shared backend, node B adopts it, queries answer
// byte-identically, B accepts new writes, and A's crash replay forgets the
// instance without GC'ing B's blob.
func TestReleaseAdoptHandoff(t *testing.T) {
	ctx := context.Background()
	backend, err := tier.NewFSBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	a := handoffEngine(t, dirA, backend, nil, nil)

	if _, err := a.CreateInstanceWithID("h1", paperInstance); err != nil {
		t.Fatal(err)
	}
	if err := a.Ingest("h1", []Fact{{Rel: "R", Tag: "r4", Values: []string{"b", "b"}}}); err != nil {
		t.Fatal(err)
	}
	want, wantVer := coreString(t, a, "h1", paperQuery)

	if err := a.ReleaseInstance(ctx, "h1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Instance("h1"); ok {
		t.Fatal("released instance still visible on the releasing node")
	}
	if exists, err := tier.Exists(ctx, backend, "h1"); err != nil || !exists {
		t.Fatalf("released blob must stay in the shared backend (exists=%t err=%v)", exists, err)
	}

	b := handoffEngine(t, dirB, backend, func(string) bool { return false }, nil)
	defer b.Close()
	if err := b.AdoptInstance(ctx, "h1"); err != nil {
		t.Fatal(err)
	}
	res := b.Residency()
	if len(res.Cold) != 1 || res.Cold[0] != "h1" {
		t.Fatalf("adopter residency cold = %v, want [h1]", res.Cold)
	}
	got, gotVer := coreString(t, b, "h1", paperQuery)
	if got != want || gotVer != wantVer {
		t.Fatalf("core after handoff:\n%s (v%d)\nwant:\n%s (v%d)", got, gotVer, want, wantVer)
	}
	// The adopter owns it now: writes must work.
	if err := b.Ingest("h1", []Fact{{Rel: "R", Tag: "r5", Values: []string{"a", "c"}}}); err != nil {
		t.Fatalf("ingest on adopter: %v", err)
	}

	// "Crash" A (abandon un-Closed) and reopen with a ring that no longer
	// owns h1: replay must forget the instance and boot GC must leave the
	// blob — it belongs to B.
	a2 := handoffEngine(t, dirA, backend, func(id string) bool { return id != "h1" }, nil)
	defer a2.Close()
	if _, ok := a2.Instance("h1"); ok {
		t.Fatal("released instance resurrected by the old owner's replay")
	}
	if exists, err := tier.Exists(ctx, backend, "h1"); err != nil || !exists {
		t.Fatalf("old owner's boot GC deleted the adopter's blob (exists=%t err=%v)", exists, err)
	}
}

// TestAdoptRewritesForeignLastSeq is the cross-node sequence-space
// regression: a released blob carries the old owner's WAL LastSeq, which is
// garbage in the adopter's log. Without the adopt-time rewrite to zero,
// the adopter's replay would skip its own post-adopt ingest records (the
// blob's foreign LastSeq exceeds their local seqs) — silent data loss.
func TestAdoptRewritesForeignLastSeq(t *testing.T) {
	ctx := context.Background()
	backend, err := tier.NewFSBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := handoffEngine(t, t.TempDir(), backend, nil, nil)
	if _, err := a.CreateInstanceWithID("h1", ""); err != nil {
		t.Fatal(err)
	}
	// Drive A's WAL sequence well past anything B will reach.
	for i := 0; i < 20; i++ {
		f := Fact{Rel: "R", Tag: fmt.Sprintf("a%d", i), Values: []string{fmt.Sprintf("x%d", i), "y"}}
		if err := a.Ingest("h1", []Fact{f}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.ReleaseInstance(ctx, "h1"); err != nil {
		t.Fatal(err)
	}

	dirB := t.TempDir()
	b := handoffEngine(t, dirB, backend, func(string) bool { return false }, nil)
	if err := b.AdoptInstance(ctx, "h1"); err != nil {
		t.Fatal(err)
	}
	blob, err := backend.Get(ctx, "h1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := persist.DecodeInstanceBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 0 {
		t.Fatalf("adopted blob LastSeq = %d, want 0 (rebased into local WAL space)", st.LastSeq)
	}
	// B's local history: fault-in (seq 1), one ingest (seq 2) — both far
	// below the 21+ the blob used to carry.
	if err := b.Ingest("h1", []Fact{{Rel: "R", Tag: "b0", Values: []string{"p", "q"}}}); err != nil {
		t.Fatal(err)
	}
	want, wantVer := coreString(t, b, "h1", "ans(x) :- R(x,y)")
	info, _ := b.Instance("h1")
	// Abandon B un-Closed: crash.

	b2 := handoffEngine(t, dirB, backend, func(string) bool { return false }, nil)
	defer b2.Close()
	info2, ok := b2.Instance("h1")
	if !ok || info2.Tuples != info.Tuples {
		t.Fatalf("recovered instance = %+v, want %d tuples (post-adopt ingest lost?)", info2, info.Tuples)
	}
	got, gotVer := coreString(t, b2, "h1", "ans(x) :- R(x,y)")
	if got != want || gotVer != wantVer {
		t.Fatalf("core after adopter crash:\n%s (v%d)\nwant:\n%s (v%d)", got, gotVer, want, wantVer)
	}
}

// TestBorrowedCopyReadOnly exercises the replica read path: AdoptBorrowed
// loads another node's blob as a read-only copy that serves queries,
// rejects writes, is skipped by snapshots, and is discarded — never GC'd
// from the shared backend — by drop and evict.
func TestBorrowedCopyReadOnly(t *testing.T) {
	ctx := context.Background()
	backend, err := tier.NewFSBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The "owner" writes the blob and goes away.
	a := handoffEngine(t, t.TempDir(), backend, nil, nil)
	if _, err := a.CreateInstanceWithID("h1", paperInstance); err != nil {
		t.Fatal(err)
	}
	want, wantVer := coreString(t, a, "h1", paperQuery)
	if err := a.ReleaseInstance(ctx, "h1"); err != nil {
		t.Fatal(err)
	}
	a.Close()

	b := handoffEngine(t, t.TempDir(), backend, func(string) bool { return false },
		func(string) AdoptMode { return AdoptBorrowed })
	defer b.Close()

	got, gotVer := coreString(t, b, "h1", paperQuery)
	if got != want || gotVer != wantVer {
		t.Fatalf("borrowed core:\n%s (v%d)\nwant:\n%s (v%d)", got, gotVer, want, wantVer)
	}
	info, ok := b.Instance("h1")
	if !ok || !info.Borrowed || info.State != "borrowed" {
		t.Fatalf("borrowed instance info = %+v, want State=borrowed", info)
	}
	err = b.Ingest("h1", []Fact{{Rel: "R", Tag: "w", Values: []string{"z", "z"}}})
	if !errors.Is(err, ErrBorrowed) {
		t.Fatalf("ingest on borrowed copy: err = %v, want ErrBorrowed", err)
	}
	// Snapshots must not capture foreign state as our own.
	if _, err := b.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if gen, err := b.Generation("h1"); err != nil || gen != wantVer {
		t.Fatalf("borrowed generation = %d (err %v), want %d", gen, err, wantVer)
	}
	// Evict discards the copy without touching the blob; the next read
	// borrows it again.
	if err := b.EvictInstance("h1"); err != nil {
		t.Fatalf("evict borrowed: %v", err)
	}
	if exists, err := tier.Exists(ctx, backend, "h1"); err != nil || !exists {
		t.Fatalf("evicting a borrowed copy touched the owner's blob (exists=%t err=%v)", exists, err)
	}
	if got, _ := coreString(t, b, "h1", paperQuery); got != want {
		t.Fatalf("re-borrow after evict: core mismatch:\n%s\nwant:\n%s", got, want)
	}
	// Drop likewise discards without GC.
	if ok, err := b.DropInstance("h1"); !ok || err != nil {
		t.Fatalf("drop borrowed: ok=%t err=%v", ok, err)
	}
	if exists, err := tier.Exists(ctx, backend, "h1"); err != nil || !exists {
		t.Fatalf("dropping a borrowed copy deleted the owner's blob (exists=%t err=%v)", exists, err)
	}
	if n := b.reg.Counter("engine_borrows_total").Value(); n < 2 {
		t.Fatalf("engine_borrows_total = %d, want >= 2", n)
	}
}

// TestAdoptOnMissOwned: the ring owner heals the crash window between a
// peer's release and its own adopt — a lookup miss with an existing blob
// adopts it transparently, and the instance is fully owned (writable).
func TestAdoptOnMissOwned(t *testing.T) {
	ctx := context.Background()
	backend, err := tier.NewFSBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := handoffEngine(t, t.TempDir(), backend, nil, nil)
	if _, err := a.CreateInstanceWithID("h1", paperInstance); err != nil {
		t.Fatal(err)
	}
	want, wantVer := coreString(t, a, "h1", paperQuery)
	if err := a.ReleaseInstance(ctx, "h1"); err != nil {
		t.Fatal(err)
	}
	a.Close()

	b := handoffEngine(t, t.TempDir(), backend, func(string) bool { return false },
		func(string) AdoptMode { return AdoptOwned })
	defer b.Close()
	got, gotVer := coreString(t, b, "h1", paperQuery)
	if got != want || gotVer != wantVer {
		t.Fatalf("adopt-on-miss core:\n%s (v%d)\nwant:\n%s (v%d)", got, gotVer, want, wantVer)
	}
	info, ok := b.Instance("h1")
	if !ok || info.Borrowed {
		t.Fatalf("adopt-on-miss instance info = %+v, want owned", info)
	}
	if err := b.Ingest("h1", []Fact{{Rel: "R", Tag: "w", Values: []string{"z", "z"}}}); err != nil {
		t.Fatalf("ingest after adopt-on-miss: %v", err)
	}
	// A genuinely unknown id must still be a miss, not an adopt loop.
	if _, err := b.Generation("nope"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("unknown id: err = %v, want ErrUnknownInstance", err)
	}
}

// TestCreateInstanceWithID covers the explicit-id create: duplicates (both
// resident and cold) are 409s, unsafe ids are rejected, and the generated
// id counter never collides with explicit numeric ids.
func TestCreateInstanceWithID(t *testing.T) {
	e, _ := newTieredEngine(t, Config{})
	if _, err := e.CreateInstanceWithID("node-a.1", paperInstance); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstanceWithID("node-a.1", ""); !errors.Is(err, ErrInstanceExists) {
		t.Fatalf("duplicate resident id: err = %v, want ErrInstanceExists", err)
	}
	if err := e.EvictInstance("node-a.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstanceWithID("node-a.1", ""); !errors.Is(err, ErrInstanceExists) {
		t.Fatalf("duplicate cold id: err = %v, want ErrInstanceExists", err)
	}
	if _, err := e.CreateInstanceWithID("../escape", ""); !errors.Is(err, ErrBadInstanceID) {
		t.Fatalf("unsafe id: err = %v, want ErrBadInstanceID", err)
	}
	if _, err := e.CreateInstanceWithID("i400", ""); err != nil {
		t.Fatal(err)
	}
	gen := mustCreate(t, e, "")
	if n := numericInstanceID(gen); n <= 400 {
		t.Fatalf("generated id %s not bumped past explicit i400", gen)
	}
}

// gatedPutBackend blocks the first Put until released — a hook to park an
// eviction mid-blob-write while Close races it.
type gatedPutBackend struct {
	tier.SnapshotBackend
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (b *gatedPutBackend) Put(ctx context.Context, id string, data []byte) error {
	b.once.Do(func() {
		close(b.entered)
		<-b.gate
	})
	return b.SnapshotBackend.Put(ctx, id, data)
}

// TestCloseWaitsForInFlightEviction is the shutdown-ordering regression:
// Close must wait out an eviction that is mid-flight (here: parked inside
// the backend Put), so the evict's WAL record lands before the log's final
// sync. Before the closeMu barrier, the acknowledged record could sit
// unflushed in the WAL writer's buffer behind Close's last sync — lost on
// the next boot even though the caller saw success.
func TestCloseWaitsForInFlightEviction(t *testing.T) {
	dir := t.TempDir()
	fsb, err := tier.NewFSBackend(filepath.Join(dir, "cold"))
	if err != nil {
		t.Fatal(err)
	}
	backend := &gatedPutBackend{
		SnapshotBackend: fsb,
		entered:         make(chan struct{}),
		gate:            make(chan struct{}),
	}
	reg := metrics.NewRegistry()
	l, err := persist.Open(persist.Options{Dir: dir, Shards: 4, Cold: backend, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{
		Workers: 2, IngestBatchSize: 1,
		Persist: l, Backend: backend, JanitorInterval: -1, Metrics: reg,
	})
	id := mustCreate(t, e, paperInstance)

	evictDone := make(chan error, 1)
	go func() { evictDone <- e.EvictInstance(id) }()
	<-backend.entered // the eviction is parked inside Put

	closeDone := make(chan struct{})
	go func() {
		e.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
		t.Fatal("Close returned while an eviction was mid-blob-write")
	case <-time.After(100 * time.Millisecond):
	}
	close(backend.gate)
	if err := <-evictDone; err != nil {
		t.Fatalf("eviction overlapping Close: %v", err)
	}
	<-closeDone

	// The acknowledged evict must have reached the log before its final
	// sync: recovery sees the instance cold, not resident.
	e2 := tieredDurableEngine(t, dir, fsb)
	defer e2.Close()
	res := e2.Residency()
	if len(res.Cold) != 1 || res.Cold[0] != id {
		t.Fatalf("after close-racing evict, recovery cold = %v resident = %+v, want [%s] cold (evict record lost?)",
			res.Cold, res.Resident, id)
	}
}
