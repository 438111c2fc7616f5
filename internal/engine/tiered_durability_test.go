package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"provmin/internal/db"
	"provmin/internal/metrics"
	"provmin/internal/persist"
	"provmin/internal/store"
	"provmin/internal/tier"
)

// tieredDurableEngine opens (or reopens) a durable engine with a cold
// backend wired into both layers — engine.Config.Backend for the residency
// machinery, persist.Options.Cold for WAL replay — exactly as cmd/provmind
// does. Not registered for cleanup: crash tests abandon it un-Closed.
func tieredDurableEngine(t *testing.T, dir string, backend tier.SnapshotBackend) *Engine {
	t.Helper()
	reg := metrics.NewRegistry()
	l, err := persist.Open(persist.Options{Dir: dir, Shards: 4, Cold: backend, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{
		Workers: 2, CacheSize: 8, IngestBatchSize: 8,
		Persist: l, Backend: backend, JanitorInterval: -1, Metrics: reg,
	})
	if err := e.AdoptCold(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTieredRecoveryEvictedStaysCold is the crash half of the tiering
// contract: an instance evicted before the "kill" must come back *cold* —
// registered but not replayed into RAM — and the first core query after
// fault-in must be byte-identical to the pre-evict response.
func TestTieredRecoveryEvictedStaysCold(t *testing.T) {
	dir := t.TempDir()
	backend, err := tier.NewFSBackend(filepath.Join(dir, "cold"))
	if err != nil {
		t.Fatal(err)
	}
	e := tieredDurableEngine(t, dir, backend)
	id1 := mustCreate(t, e, paperInstance)
	id2 := mustCreate(t, e, "")
	if err := e.Ingest(id2, []Fact{{Rel: "T", Tag: "t1", Values: []string{"x"}}}); err != nil {
		t.Fatal(err)
	}
	wantCore, wantVer := coreString(t, e, id1, paperQuery)
	if err := e.EvictInstance(id1); err != nil {
		t.Fatal(err)
	}
	// Abandon e — the process "dies" here with id1 cold and id2 resident.

	e2 := tieredDurableEngine(t, dir, backend)
	defer e2.Close()
	res := e2.Residency()
	if len(res.Cold) != 1 || res.Cold[0] != id1 {
		t.Fatalf("cold after recovery = %v, want [%s]", res.Cold, id1)
	}
	if len(res.Resident) != 1 || res.Resident[0].ID != id2 {
		t.Fatalf("resident after recovery = %+v, want just %s", res.Resident, id2)
	}
	if got := e2.reg.Gauge("persist_replay_cold_instances").Value(); got != 1 {
		t.Fatalf("replay cold gauge = %d, want 1", got)
	}
	gotCore, gotVer := coreString(t, e2, id1, paperQuery)
	if gotCore != wantCore || gotVer != wantVer {
		t.Fatalf("first core after fault-in:\n%s (v%d)\nwant pre-evict:\n%s (v%d)", gotCore, gotVer, wantCore, wantVer)
	}
	// New ids must not collide with anything, resident or cold.
	id3 := mustCreate(t, e2, "")
	if id3 == id1 || id3 == id2 {
		t.Fatalf("recovered engine reused instance id %s", id3)
	}
}

// TestTieredRecoveryLayersPostFaultInIngest: state written after a
// fault-in must survive a crash — replay loads the blob at the fault-in
// record and layers the later ingest records on top.
func TestTieredRecoveryLayersPostFaultInIngest(t *testing.T) {
	dir := t.TempDir()
	backend, err := tier.NewFSBackend(filepath.Join(dir, "cold"))
	if err != nil {
		t.Fatal(err)
	}
	e := tieredDurableEngine(t, dir, backend)
	id := mustCreate(t, e, paperInstance)
	if err := e.EvictInstance(id); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(id, []Fact{{Rel: "R", Tag: "r4", Values: []string{"b", "b"}}}); err != nil {
		t.Fatal(err)
	}
	want, wantVer := coreString(t, e, id, paperQuery)
	// Abandon.

	e2 := tieredDurableEngine(t, dir, backend)
	defer e2.Close()
	info, ok := e2.Instance(id)
	if !ok || info.Tuples != 4 {
		t.Fatalf("recovered instance = %+v, want 4 tuples", info)
	}
	got, gotVer := coreString(t, e2, id, paperQuery)
	if got != want || gotVer != wantVer {
		t.Fatalf("core after recovery:\n%s (v%d)\nwant:\n%s (v%d)", got, gotVer, want, wantVer)
	}
}

// TestAdoptColdGCAndOrphans: boot adoption deletes blobs of dropped
// instances (a crash may have lost the live deletion), adopts foreign
// blobs as cold entries, and bumps the id counter past them.
func TestAdoptColdGCAndOrphans(t *testing.T) {
	dir := t.TempDir()
	backend, err := tier.NewFSBackend(filepath.Join(dir, "cold"))
	if err != nil {
		t.Fatal(err)
	}
	e := tieredDurableEngine(t, dir, backend)
	id := mustCreate(t, e, paperInstance)
	if err := e.EvictInstance(id); err != nil {
		t.Fatal(err)
	}
	if ok, err := e.DropInstance(id); !ok || err != nil {
		t.Fatalf("drop: ok=%t err=%v", ok, err)
	}
	ctx := context.Background()
	// Resurrect the dropped instance's blob (as if the live Delete failed)
	// and plant an orphan with a high numeric id, as an object store shared
	// across rebuilds would.
	if err := backend.Put(ctx, id, mustBlob(t, "zombie")); err != nil {
		t.Fatal(err)
	}
	orphanID := "i900"
	if err := backend.Put(ctx, orphanID, mustBlob(t, orphanID)); err != nil {
		t.Fatal(err)
	}
	// Abandon.

	e2 := tieredDurableEngine(t, dir, backend)
	defer e2.Close()
	if _, ok := e2.Instance(id); ok {
		t.Fatalf("dropped instance %s resurrected by adoption", id)
	}
	if _, err := backend.Get(ctx, id); err == nil {
		t.Fatalf("dropped instance %s blob not GCed at boot", id)
	}
	res := e2.Residency()
	if len(res.Cold) != 1 || res.Cold[0] != orphanID {
		t.Fatalf("cold after adoption = %v, want [%s]", res.Cold, orphanID)
	}
	next := mustCreate(t, e2, "")
	if numericInstanceID(next) <= 900 {
		t.Fatalf("new id %s not bumped past adopted blob %s", next, orphanID)
	}
}

// mustBlob encodes a minimal cold blob carrying the given instance id. The
// zombie blob reuses the dropped id, so its content never matters; the
// orphan's id must round-trip.
func mustBlob(t *testing.T, id string) []byte {
	t.Helper()
	d, err := db.ParseInstance(paperInstance)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := persist.EncodeInstanceBlob(persist.InstanceState{ID: id, DB: d, Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestEvictFlushesPendingBatch: an ingest racing EvictInstance must be
// acknowledged, and its fact must travel with the blob. Either the write
// reaches the batcher before the eviction fence closes it (the close
// drains every queued request before the snapshot is captured), or the
// closed batcher rejects it and Ingest retries through fault-in.
func TestEvictFlushesPendingBatch(t *testing.T) {
	e, _ := newTieredEngine(t, Config{})
	id := mustCreate(t, e, "")
	const rounds = 20
	for i := 0; i < rounds; i++ {
		done := make(chan error, 1)
		go func() {
			v := fmt.Sprintf("v%d", i)
			done <- e.Ingest(id, []Fact{{Rel: "R", Tag: "p" + v, Values: []string{v, v}}})
		}()
		if err := e.EvictInstance(id); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("round %d: ingest racing evict: %v", i, err)
		}
	}
	info, ok := e.Instance(id) // fault back in
	if !ok || info.Tuples != rounds {
		t.Fatalf("after fault-in: %+v, want all %d acknowledged facts present", info, rounds)
	}
}

// TestSnapshotNeverSplitsIngestBatch races Snapshot against concurrent
// multi-fact ingest batches and decodes every produced snapshot file: a
// captured instance must always hold a whole number of 5-fact requests.
// The fence being audited: persist.Log.Snapshot captures a shard under the
// same WAL mutex Commit applies under, and the batch apply runs inside
// Commit — so capture can never observe a half-applied batch.
//
// Writers take one token per request, and each round tops the tokens up
// to perRound just before its snapshot, so writes are in flight during
// every snapshot while the instance grows linearly. Unthrottled writers
// would grow it by a constant factor per round, since a snapshot and its
// decode take time linear in the instance.
func TestSnapshotNeverSplitsIngestBatch(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, 2)
	defer e.Close()
	id := mustCreate(t, e, "")
	const reqFacts, writers, rounds, perRound = 5, 4, 20, 32
	tokens := make(chan struct{}, perRound)
	acked := make(chan struct{}, rounds*perRound)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-tokens:
				}
				facts := make([]Fact, reqFacts)
				for j := range facts {
					v := fmt.Sprintf("w%d-%d-%d", w, i, j)
					facts[j] = Fact{Rel: "R", Tag: v, Values: []string{v, v}}
				}
				if err := e.Ingest(id, facts); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				acked <- struct{}{}
			}
		}(w)
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	defer func() { close(stop); <-writersDone }()
	prev := 0
	for i := 0; i < rounds; i++ {
		// Each writer has at most one request in flight, which may have
		// been applied before the previous capture. Of the writers+1 acks
		// that follow this drain, at least one is for a request applied
		// after that capture, so every snapshot must see more tuples.
		for len(acked) > 0 {
			<-acked
		}
		for j := len(tokens); j < perRound; j++ {
			tokens <- struct{}{}
		}
		for j := 0; j <= writers; j++ {
			select {
			case <-acked:
			case <-writersDone:
				t.Fatal("writers stopped")
			}
		}
		if _, err := e.Snapshot(); err != nil {
			t.Fatal(err)
		}
		n := snapshotTuples(t, dir, id)
		if n%reqFacts != 0 {
			t.Fatalf("snapshot %d captured %d tuples — a split %d-fact batch", i, n, reqFacts)
		}
		if n <= prev {
			t.Fatalf("snapshot %d captured %d tuples, no more than the %d before it", i, n, prev)
		}
		prev = n
	}
}

// snapshotTuples decodes the shard snapshot files under dir and returns
// the captured tuple count for one instance.
func snapshotTuples(t *testing.T, dir, id string) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		var hdr map[string]any
		if err := dec.Decode(&hdr); err != nil {
			t.Fatalf("%s: header: %v", path, err)
		}
		for dec.More() {
			var env store.Envelope
			if err := dec.Decode(&env); err != nil {
				t.Fatalf("%s: envelope: %v", path, err)
			}
			if env.Instance != id {
				continue
			}
			d, _, _, err := env.Decode()
			if err != nil {
				t.Fatalf("%s: decode %s: %v", path, id, err)
			}
			return d.NumTuples()
		}
	}
	return 0 // not captured yet
}
