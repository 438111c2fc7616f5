package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStallsToQueuedRequests stalls a fake server for
// 100 ms and checks that the requests due during the stall are still
// released on schedule and that each is charged the wait from its due time
// until the stall ended, as a closed-loop client would not charge it.
func TestOpenLoopChargesStallsToQueuedRequests(t *testing.T) {
	const (
		rate    = 500.0
		n       = 200
		stallAt = 50
		stall   = 100 * time.Millisecond
	)
	var mu sync.Mutex // held during the stall: every request waits for it
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct{ I int }
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		if body.I == stallAt {
			time.Sleep(stall)
		}
		mu.Unlock()
		_, _ = w.Write([]byte("{}"))
	}))
	defer srv.Close()

	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = &request{seq: i, kind: kindQuery, path: "/", body: mustJSON(map[string]int{"I": i})}
	}
	lc := newLoadClient(srv.URL, false, nil)
	defer lc.close()
	p := lc.openLoop(context.Background(), reqs, rate)

	if f := p.failed(); f != 0 {
		t.Fatalf("%d requests failed", f)
	}
	stallStart := p.samples[stallAt].sent
	stallEnd := stallStart + stall
	charged := 0
	for i := stallAt + 1; i < n; i++ {
		s := p.samples[i]
		if s.due >= stallEnd-5*time.Millisecond {
			break
		}
		// A generator that waited for the server would release these up
		// to the whole stall late; a loaded machine delays it a few ms.
		if lag := s.dispatched - s.due; lag > stall/4 {
			t.Errorf("request %d released %v late: the generator waited for the server", i, lag)
		}
		if s.due > stallStart {
			charged++
			if wait := stallEnd - s.due; s.done-s.due < wait-2*time.Millisecond {
				t.Errorf("request %d due %v into the stall took %v, want at least %v", i, s.due-stallStart, s.done-s.due, wait)
			}
		}
	}
	if charged < 40 {
		t.Fatalf("only %d requests fell due during the stall", charged)
	}
	if before := p.samples[stallAt-10]; before.done-before.due > 50*time.Millisecond {
		t.Errorf("request before the stall took %v", before.done-before.due)
	}
}

// TestClosedLoopEndsWhenRequestsRunOut gives a closed loop fewer requests
// than it can send in its time and checks that it sends each once, ends
// with the last answer rather than generating more, and counts every answer
// within its length.
func TestClosedLoopEndsWhenRequestsRunOut(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("{}"))
	}))
	defer srv.Close()
	reqs := make([]*request, 50)
	for i := range reqs {
		reqs[i] = &request{seq: i, kind: kindQuery, path: "/", body: []byte("{}")}
	}
	lc := newLoadClient(srv.URL, false, nil)
	defer lc.close()
	const d = 20 * time.Second
	start := time.Now()
	p := lc.closedLoop(context.Background(), reqs, d)
	if took := time.Since(start); took > d/2 {
		t.Fatalf("closed loop of %d requests took %v", len(reqs), took)
	}
	if len(p.reqs) != len(reqs) || p.length >= d {
		t.Errorf("sent %d of %d requests, length %v: want all, and shorter than %v", len(p.reqs), len(reqs), p.length, d)
	}
	if n := p.completed(); n != len(reqs) {
		t.Errorf("%d requests completed within the phase, want %d", n, len(reqs))
	}
}
