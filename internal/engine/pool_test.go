package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"provmin/internal/query"
)

// TestEvalSlotCancelWhileWaiting: a caller whose ctx ends while every slot
// is taken gets ctx's error back, and its fn never runs.
func TestEvalSlotCancelWhileWaiting(t *testing.T) {
	e := New(Config{Workers: 1})
	t.Cleanup(e.Close)
	started, release := make(chan struct{}), make(chan struct{})
	held := make(chan error, 1)
	go func() {
		_, err := run(context.Background(), e, func() (int, error) {
			close(started)
			<-release
			return 0, nil
		})
		held <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	waited := make(chan error, 1)
	go func() {
		_, err := run(ctx, e, func() (int, error) { ran = true; return 0, nil })
		waited <- err
	}()
	cancel()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("cancelled waiter's fn ran")
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// TestEvalSlotBound: however many callers arrive, no more than Workers of
// their fns run at once.
func TestEvalSlotBound(t *testing.T) {
	const workers, callers = 2, 16
	e := New(Config{Workers: workers})
	t.Cleanup(e.Close)
	var running, peak, done atomic.Int64
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := run(context.Background(), e, func() (int, error) {
				n := running.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(time.Millisecond)
				running.Add(-1)
				done.Add(1)
				return 0, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if done.Load() != callers || peak.Load() > workers {
		t.Fatalf("%d of %d fns ran, at most %d at once; want all, at most %d", done.Load(), callers, peak.Load(), workers)
	}
}

// TestEvalSlotPanicFreesSlot: a panicking fn comes back as an error and
// gives its slot back.
func TestEvalSlotPanicFreesSlot(t *testing.T) {
	e := New(Config{Workers: 1})
	t.Cleanup(e.Close)
	if _, err := run(context.Background(), e, func() (int, error) { panic("boom") }); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking fn: %v, want an error naming the panic", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if v, err := run(ctx, e, func() (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Fatalf("run after a panic: %d, %v; want 7 (the slot must be free)", v, err)
	}
}

// TestEvalSlotClose: Close waits for a running fn to finish, and run fails
// once Close has returned.
func TestEvalSlotClose(t *testing.T) {
	e := New(Config{Workers: 2})
	started, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	go func() {
		_, _ = run(context.Background(), e, func() (int, error) {
			close(started)
			<-release
			finished.Store(true)
			return 0, nil
		})
	}()
	<-started
	closed := make(chan bool, 1)
	go func() {
		e.Close()
		closed <- finished.Load()
	}()
	<-e.pool.closed
	// Give a Close that does not wait the time to return early.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if !<-closed {
		t.Fatal("Close returned while an evaluation was still running")
	}
	if _, err := run(context.Background(), e, func() (int, error) { return 0, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("run after Close: %v, want ErrClosed", err)
	}
}

// TestNoGoroutinePerInstance: an instance costs no goroutine — ingest runs
// on its callers' goroutines.
func TestNoGoroutinePerInstance(t *testing.T) {
	e := New(Config{Workers: 2})
	t.Cleanup(e.Close)
	before := runtime.NumGoroutine()
	for range 200 {
		mustCreate(t, e, "R r1 a b")
	}
	if grew := runtime.NumGoroutine() - before; grew >= 10 {
		t.Fatalf("200 instances grew the goroutine count by %d", grew)
	}
}

// TestProbTrustQueueOnce: a /prob or /trust request takes one evaluation
// slot, so it waits in the queue (and is observed there) once.
func TestProbTrustQueueOnce(t *testing.T) {
	e := newTestEngine(t)
	id := mustCreate(t, e, paperInstance)
	u := query.MustParseUnion(paperQuery)
	ctx := context.Background()
	waits := e.Metrics().Histogram("engine_queue_wait_seconds")
	before := waits.Count()
	if _, err := e.Probability(ctx, id, u, []string{"a"}, ProbOpts{Default: 0.5, UseCore: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Trust(ctx, id, u, []string{"a"}, TrustOpts{Default: 1, UseCore: true}); err != nil {
		t.Fatal(err)
	}
	if n := waits.Count() - before; n != 2 {
		t.Fatalf("2 calls recorded %d queue waits, want one each", n)
	}
}
