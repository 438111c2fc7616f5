package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// conns is the number of HTTP connections the load uses: one process with
// at most two, one per vCPU of the reference machine, so the load
// generator never outnumbers the cores the servers run on.
const conns = 2

// respFlags are the cache flags of one read response, recorded by traced
// runs.
type respFlags struct {
	minHit, resultHit, maintained, routerHit bool
}

// sample is the timing and outcome of one request. Times are offsets from
// the start of its phase: due is when the schedule wanted it sent,
// dispatched when the generator released it, sent when a connection
// started writing it, and done when its response was fully read.
type sample struct {
	due, dispatched, sent, done time.Duration
	status                      int // 0 on a transport error
	flags                       respFlags
	body                        []byte // kept for the oracle
}

func (s *sample) ok() bool { return s.status >= 200 && s.status < 300 }

// phase is the requests one phase sent and their samples, index-aligned.
type phase struct {
	reqs    []*request
	samples []sample
	length  time.Duration
}

// loadClient sends the load: one host, at most conns connections.
type loadClient struct {
	base   string
	hc     *http.Client
	traced bool
	keep   func(*request) bool // whether to keep a response body for the oracle
}

func newLoadClient(base string, traced bool, keep func(*request) bool) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadClient{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, traced: traced, keep: keep}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// do sends r and fills s; buf is the calling worker's read buffer.
func (c *loadClient) do(r *request, s *sample, start time.Time, buf *bytes.Buffer) {
	s.sent = time.Since(start)
	defer func() { s.done = time.Since(start) }()
	resp, err := c.hc.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return
	}
	s.status = resp.StatusCode
	if !r.kind.isRead() || !s.ok() {
		return
	}
	if c.keep != nil && c.keep(r) {
		s.body = bytes.Clone(buf.Bytes())
	}
	if c.traced {
		var f struct {
			CacheHit       bool `json:"cache_hit"`
			ResultCacheHit bool `json:"result_cache_hit"`
			MaintainedHit  bool `json:"maintained_hit"`
		}
		if json.Unmarshal(buf.Bytes(), &f) == nil {
			s.flags = respFlags{f.CacheHit, f.ResultCacheHit, f.MaintainedHit, resp.Header.Get("X-Provmind-Cache") == "hit"}
		}
	}
}

// openLoop sends reqs at a fixed rate regardless of how fast answers
// come back: request i is due i/rate seconds after the start. The
// generator only releases requests into a queue that conns workers drain,
// so a stalled server delays the requests queued behind it, and their
// latency, counted from the due time, shows it.
func (c *loadClient) openLoop(ctx context.Context, reqs []*request, rate float64) *phase {
	p := &phase{reqs: reqs, samples: make([]sample, len(reqs))}
	// The queue holds every request of the phase, so releasing one never
	// waits for a busy connection.
	queue := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				c.do(reqs[i], &p.samples[i], start, &buf)
			}
		}()
	}
	// Go's timers wake up to a millisecond late, which would add half a
	// millisecond to every latency; nanosleep on a locked thread with a
	// 1 µs timer slack wakes within tens of microseconds.
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	for i := range reqs {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		sleepUntil(start.Add(due))
		if ctx.Err() != nil {
			break
		}
		p.samples[i].due = due
		p.samples[i].dispatched = time.Since(start)
		queue <- i
	}
	runtime.UnlockOSThread()
	close(queue)
	wg.Wait()
	p.length = time.Duration(float64(len(reqs)) / rate * float64(time.Second))
	return p
}

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK from <linux/prctl.h>

// sleepUntil sleeps the calling thread until t. The raw system call keeps
// the goroutine's P across the sleep: with syscall.Nanosleep the runtime
// handed the P away, and on waking the generator waited up to the 10 ms
// scheduling quantum for one while the connections parsed answers.
// Asynchronous preemption still interrupts the sleep (EINTR) when the
// garbage collector stops the world; the loop then sleeps again.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_, _, _ = syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
	}
}

// closedLoop runs conns workers that each send the next of reqs as soon as
// their previous request is answered, for d: the capacity of the system
// under the same mix. The requests are generated beforehand, so the phase
// measures the servers and never the generator. If the workers send them
// all before d is up, the phase ends when the last answer arrives, and its
// length is that shorter time.
func (c *loadClient) closedLoop(ctx context.Context, reqs []*request, d time.Duration) *phase {
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Since(start) < d && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				s := &samples[i]
				s.due = time.Since(start)
				s.dispatched = s.due
				c.do(reqs[i], s, start, &buf)
			}
		}()
	}
	wg.Wait()
	sent := min(int(next.Load()), len(reqs))
	p := &phase{reqs: reqs[:sent], samples: samples[:sent], length: d}
	if sent == len(reqs) {
		p.length = min(d, time.Since(start))
	}
	return p
}

// latencies returns the sorted latencies in milliseconds, from due time
// to response, of the requests matching pick; a failed request counts as
// +Inf, so it misses every latency limit.
func (p *phase) latencies(pick func(*request) bool, fromSend bool) []float64 {
	var out []float64
	for i, r := range p.reqs {
		if !pick(r) {
			continue
		}
		s := &p.samples[i]
		v := math.Inf(1)
		if s.ok() {
			from := s.due
			if fromSend {
				from = s.sent
			}
			v = ms(s.done - from)
		}
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// lags returns the sorted generator lags in milliseconds: how late each
// request was released against its schedule.
func (p *phase) lags() []float64 {
	out := make([]float64, len(p.samples))
	for i := range p.samples {
		out[i] = ms(p.samples[i].dispatched - p.samples[i].due)
	}
	sort.Float64s(out)
	return out
}

// completed counts the successful requests answered within the phase.
func (p *phase) completed() int {
	n := 0
	for i := range p.samples {
		if p.samples[i].ok() && p.samples[i].done <= p.length {
			n++
		}
	}
	return n
}

func (p *phase) failed() int {
	n := 0
	for i := range p.samples {
		if !p.samples[i].ok() {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

func isRead(r *request) bool  { return r.kind.isRead() }
func isWrite(r *request) bool { return !r.kind.isRead() }
