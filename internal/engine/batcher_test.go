package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestBatcherAddAfterCloseFails is the deterministic sequencing half of the
// close/add contract: once close returned, add must fail fast with the
// closed error, and a pre-close add's facts must be fully applied.
func TestBatcherAddAfterCloseFails(t *testing.T) {
	e := New(Config{Workers: 2, IngestBatchSize: 4})
	t.Cleanup(e.Close)
	id := mustCreate(t, e, "")
	in, err := e.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.batcher.add([]Fact{{Rel: "R", Tag: "pre", Values: []string{"v"}}}); err != nil {
		t.Fatalf("pre-close add: %v", err)
	}
	in.batcher.close()
	in.batcher.close() // idempotent
	if err := in.batcher.add([]Fact{{Rel: "R", Tag: "post", Values: []string{"v"}}}); !errors.Is(err, errInstanceClosed) {
		t.Fatalf("post-close add: %v, want errInstanceClosed", err)
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	rel := in.db.Lookup("R")
	if rel == nil || rel.Len() != 1 || rel.Rows()[0].Tag != "pre" {
		t.Fatalf("pre-close facts lost or post-close facts applied: %v", in.db)
	}
}

// TestBatcherCloseAddRace is the regression test for the close/drain race:
// the old add path did a non-blocking resp check after observing done, so a
// request could land in the channel buffer after the loop's final drain and
// be silently stranded — or, when the drain did handle it, the caller could
// observe the closed error while its facts were applied. The contract under
// concurrent close is: every add returns exactly once, and it returns nil
// if and only if its facts are visible in the instance.
func TestBatcherCloseAddRace(t *testing.T) {
	const rounds = 60
	for round := 0; round < rounds; round++ {
		e := New(Config{Workers: 2, IngestBatchSize: 2})
		id := mustCreate(t, e, "")
		in, err := e.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		const adders = 8
		results := make([]error, adders)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < adders; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				results[i] = in.batcher.add([]Fact{{
					Rel: "R", Tag: fmt.Sprintf("t%d", i), Values: []string{fmt.Sprintf("v%d", i)},
				}})
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			in.batcher.close()
		}()
		close(start)
		wg.Wait() // a stranded request would hang here and trip the test timeout

		applied := map[string]bool{}
		in.mu.RLock()
		if rel := in.db.Lookup("R"); rel != nil {
			for _, row := range rel.Rows() {
				applied[row.Tag] = true
			}
		}
		in.mu.RUnlock()
		for i, err := range results {
			tag := fmt.Sprintf("t%d", i)
			switch {
			case err == nil && !applied[tag]:
				t.Fatalf("round %d: add %s acknowledged but facts absent", round, tag)
			case err != nil && applied[tag]:
				t.Fatalf("round %d: add %s failed (%v) but facts applied", round, tag, err)
			case err != nil && !errors.Is(err, errInstanceClosed):
				t.Fatalf("round %d: add %s: unexpected error %v", round, tag, err)
			}
		}
		e.Close()
	}
}

// TestBatcherTakesQueuedRequests pins the self-clocking contract: when a
// caller leads a flush, the requests already queued behind its own go into
// the same flush, up to batchSize facts, and the leader never waits for
// more. Every request is queued before any caller leads, so the batches
// are deterministic, and each shows as one generation bump.
func TestBatcherTakesQueuedRequests(t *testing.T) {
	for _, tc := range []struct {
		batchSize, reqs int
		wantGen         uint64
	}{
		{batchSize: 256, reqs: 10, wantGen: 1},
		{batchSize: 4, reqs: 10, wantGen: 3}, // batches of 4, 4 and 2
		{batchSize: 1, reqs: 3, wantGen: 3},
	} {
		t.Run(fmt.Sprintf("cap%d/reqs%d", tc.batchSize, tc.reqs), func(t *testing.T) {
			e := New(Config{Workers: 2, IngestBatchSize: tc.batchSize})
			t.Cleanup(e.Close)
			in, err := e.lookup(mustCreate(t, e, ""))
			if err != nil {
				t.Fatal(err)
			}
			reqs := make([]*ingestReq, tc.reqs)
			for i := range reqs {
				v := fmt.Sprintf("v%d", i)
				reqs[i] = &ingestReq{facts: []Fact{{Rel: "R", Tag: "t" + v, Values: []string{v}}}, resp: make(chan error, 1)}
				if err := in.batcher.enqueue(reqs[i]); err != nil {
					t.Fatal(err)
				}
			}
			// Waiting in arrival order makes each batch's front request its
			// leader; the rest of its batch already hold their outcomes.
			for i, req := range reqs {
				if err := in.batcher.wait(req); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			in.mu.RLock()
			defer in.mu.RUnlock()
			if rel := in.db.Lookup("R"); rel == nil || rel.Len() != tc.reqs {
				t.Fatalf("applied facts: %v, want %d", in.db, tc.reqs)
			}
			if in.version != tc.wantGen {
				t.Fatalf("generation %d, want %d (one per flushed batch)", in.version, tc.wantGen)
			}
		})
	}
}

// TestBatcherFlushPanicHandsOn pins what a panicking flush leaves behind:
// the leader's own goroutine carries the panic, every other request of its
// batch fails instead of hanging, and the batcher keeps working — the next
// add leads a flush of its own, and close still returns.
func TestBatcherFlushPanicHandsOn(t *testing.T) {
	e := New(Config{Workers: 2})
	t.Cleanup(e.Close)
	in, err := e.lookup(mustCreate(t, e, ""))
	if err != nil {
		t.Fatal(err)
	}
	in.mu.Lock()
	saved := in.db
	in.db = nil // validate dereferences it
	in.mu.Unlock()
	front := &ingestReq{facts: []Fact{{Rel: "R", Tag: "f", Values: []string{"f"}}}, resp: make(chan error, 1)}
	behind := &ingestReq{facts: []Fact{{Rel: "R", Tag: "b", Values: []string{"b"}}}, resp: make(chan error, 1)}
	for _, req := range []*ingestReq{front, behind} {
		if err := in.batcher.enqueue(req); err != nil {
			t.Fatal(err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("front caller returned; want its flush's panic")
			}
		}()
		_ = in.batcher.wait(front)
	}()
	if err := in.batcher.wait(behind); !errors.Is(err, errFlushPanicked) {
		t.Fatalf("request behind the panicking leader: %v, want errFlushPanicked", err)
	}
	in.mu.Lock()
	in.db = saved
	in.mu.Unlock()
	if err := in.batcher.add([]Fact{{Rel: "R", Tag: "after", Values: []string{"a"}}}); err != nil {
		t.Fatalf("add after the panic: %v", err)
	}
	in.batcher.close()
	in.mu.RLock()
	defer in.mu.RUnlock()
	if rel := in.db.Lookup("R"); rel == nil || rel.Len() != 1 || in.version != 1 {
		t.Fatalf("after the panic: %v at generation %d, want only the later fact at generation 1", in.db, in.version)
	}
}
