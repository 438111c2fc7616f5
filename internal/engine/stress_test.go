package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"provmin/internal/persist"
	"provmin/internal/query"
)

// TestStressParallelQueryAndIngest hammers one instance with concurrent
// queries, core requests (sharing the minimization cache) and tuple ingest.
// Run under -race it exercises the instance read-write lock, the ingest
// batcher's single-writer flush, the worker pool and the LRU cache at once.
// Correctness assertions are deliberately weak (no panics, no errors,
// monotone visibility) — the value is the interleaving coverage.
func TestStressParallelQueryAndIngest(t *testing.T) {
	e := New(Config{Workers: 4, CacheSize: 4, IngestBatchSize: 8})
	defer e.Close()
	id := mustCreate(t, e, paperInstance)
	ctx := context.Background()

	queries := []*query.UCQ{
		query.MustParseUnion("ans(x) :- R(x,y), R(y,x)"),
		query.MustParseUnion("ans(x) :- R(x,x)"),
		query.MustParseUnion("ans(x,y) :- R(x,y)"),
		query.MustParseUnion("ans(x) :- R(x,y); ans(x) :- R(y,x)"),
		query.MustParseUnion("ans(x) :- R(x,y), R(y,z)"),
	}

	const (
		readers       = 6
		writers       = 3
		opsPerReader  = 30
		factsPerWrite = 4
		writesPer     = 10
	)

	var wg sync.WaitGroup
	errc := make(chan error, readers*opsPerReader+writers*writesPer)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writesPer; i++ {
				facts := make([]Fact, factsPerWrite)
				for j := range facts {
					v1 := fmt.Sprintf("w%d_%d_%d", w, i, j)
					facts[j] = Fact{Rel: "R", Tag: "t" + v1, Values: []string{v1, "a"}}
				}
				if err := e.Ingest(id, facts); err != nil {
					errc <- fmt.Errorf("ingest: %w", err)
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < opsPerReader; i++ {
				u := queries[(r+i)%len(queries)]
				switch i % 3 {
				case 0:
					if _, err := e.Query(ctx, id, u); err != nil {
						errc <- fmt.Errorf("query: %w", err)
					}
				case 1:
					if _, err := e.Core(ctx, id, u); err != nil {
						errc <- fmt.Errorf("core: %w", err)
					}
				case 2:
					if _, err := e.Probability(ctx, id, u, []string{"a"}, ProbOpts{Default: 0.5, UseCore: true, MCSamples: 50, Seed: int64(i)}); err != nil {
						errc <- fmt.Errorf("prob: %w", err)
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// All writes landed: 3 tuples seeded + writers*writesPer*factsPerWrite
	// distinct tuples.
	info, ok := e.Instance(id)
	if !ok {
		t.Fatal("instance vanished")
	}
	want := 3 + writers*writesPer*factsPerWrite
	if info.Tuples != want {
		t.Fatalf("tuples = %d, want %d", info.Tuples, want)
	}

	// Every query result is now a consistent snapshot containing all rows:
	// full scan must see exactly want tuples.
	out, err := e.Query(ctx, id, query.MustParseUnion("ans(x,y) :- R(x,y)"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Len() != want {
		t.Fatalf("scan sees %d tuples, want %d", out.Result.Len(), want)
	}
}

// TestStressMinimizeShared checks the cache under concurrent Minimize
// calls: every caller for one canonical key must get an equivalent
// p-minimal form, whether it computed or cached.
func TestStressMinimizeShared(t *testing.T) {
	e := New(Config{Workers: 4, CacheSize: 2})
	defer e.Close()
	u := query.MustParseUnion("ans(x) :- R(x,y), R(y,x)")
	want, _ := e.Minimize(mustClone(u))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				min, _ := e.Minimize(mustClone(u))
				if min.String() != want.String() {
					t.Errorf("concurrent Minimize diverged:\n%s\nvs\n%s", min, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func mustClone(u *query.UCQ) *query.UCQ { return u.Clone() }

// TestIngestRacingDrop closes instances while ingest is in flight: every
// Ingest call must return (applied or "instance closed"), never hang, and
// concurrent DropInstance/Close on one batcher must not panic.
func TestIngestRacingDrop(t *testing.T) {
	for round := 0; round < 20; round++ {
		e := New(Config{Workers: 2, IngestBatchSize: 4})
		id := mustCreate(t, e, "")
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					v := fmt.Sprintf("g%d_%d", g, i)
					// Either outcome is fine; hanging is not.
					_ = e.Ingest(id, []Fact{{Rel: "R", Tag: v, Values: []string{v}}})
				}
			}(g)
		}
		wg.Add(2)
		go func() { defer wg.Done(); e.DropInstance(id) }()
		go func() { defer wg.Done(); e.Close() }()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: ingest or close hung", round)
		}
	}
}

// TestDurableIngestRacingDrop races writers against one durable drop. The
// drop fences the ingest batcher before its record is committed, so no
// write can be applied, logged or counted after it: resident bytes return
// to zero, and a reopened log ends the id's history with the drop. Once
// the engine is closed, a drop is refused with ErrClosed.
func TestDurableIngestRacingDrop(t *testing.T) {
	for round := 0; round < 50; round++ {
		dir := t.TempDir()
		l, err := persist.Open(persist.Options{Dir: dir, Shards: 1, Sync: persist.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		e := New(Config{Workers: 2, IngestBatchSize: 4, Persist: l})
		id := mustCreate(t, e, "")
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					v := fmt.Sprintf("g%d_%d", g, i)
					// Applied before the drop, or refused: both are fine.
					_ = e.Ingest(id, []Fact{{Rel: "R", Tag: v, Values: []string{v}}})
				}
			}(g)
		}
		dropped, err := e.DropInstance(id)
		wg.Wait()
		if !dropped || err != nil {
			t.Fatalf("round %d: drop = (%t, %v), want (true, nil)", round, dropped, err)
		}
		if b := e.Residency().ResidentBytes; b != 0 {
			t.Errorf("round %d: resident bytes after drop = %d, want 0", round, b)
		}
		e.Close()
		if _, err := e.DropInstance(id); !errors.Is(err, ErrClosed) {
			t.Errorf("round %d: drop after close = %v, want ErrClosed", round, err)
		}
		l2, err := persist.Open(persist.Options{Dir: dir, Shards: 1, Sync: persist.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		if got := l2.DroppedIDs(); !slices.Contains(got, id) {
			t.Errorf("round %d: reopened log's dropped ids = %v, want %s among them", round, got, id)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMinimizeSingleflight floods one cold key: exactly one MinProv run
// (one cache miss) must serve every concurrent caller.
func TestMinimizeSingleflight(t *testing.T) {
	e := New(Config{Workers: 4, CacheSize: 8})
	defer e.Close()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			u := query.MustParseUnion("ans(x) :- R(x,y), R(y,x), R(x,w)")
			if min, _ := e.Minimize(u); min == nil {
				t.Error("Minimize returned nil")
			}
		}()
	}
	close(start)
	wg.Wait()
	if misses := e.Metrics().Counter("engine_cache_misses_total").Value(); misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (singleflight)", misses)
	}
	if hits := e.Metrics().Counter("engine_cache_hits_total").Value(); hits != 15 {
		t.Fatalf("cache hits = %d, want 15", hits)
	}
}
