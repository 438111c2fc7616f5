package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"provmin/internal/db"
	"provmin/internal/eval"
	"provmin/internal/persist"
)

// Fact is one annotated tuple to ingest: relation name, provenance tag and
// the tuple's values. It is the persist WAL fact type, so ingest batches
// flow into the log without conversion.
type Fact = persist.Fact

// ingestBatcher coalesces concurrent tuple ingests into one write-lock
// acquisition. Every Instance write invalidates the relation's column
// indexes and contends with readers, so it pays to apply several requests
// in a single critical section. The batching is self-clocking group
// commit: the loop blocks until one request arrives, takes whatever else
// is already queued behind it without waiting (up to batchSize facts) and
// flushes at once. Requests that arrive during a flush form the next
// batch, so batches grow with load while an idle instance never waits.
// When the engine is durable, one batch is also one WAL record and one
// (group-shared) fsync — the fsync batching piggybacks on the ingest
// batching. Callers block until their facts are durably applied, so the
// batching is invisible except in throughput.
type ingestBatcher struct {
	eng       *Engine
	inst      *instance
	batchSize int

	in        chan *ingestReq
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	// addMu/adders/stopped fence add against close: an add either observes
	// stopped and fails before sending, or registers in adders so close
	// waits for its send to land before stopping the loop. The loop's final
	// drain therefore observes every queued request, and every caller gets
	// exactly one response — the previous non-blocking resp check could
	// race a request into the channel buffer after the final drain and
	// silently strand it.
	addMu   sync.Mutex //provlint:lockorder 4
	adders  sync.WaitGroup
	stopped bool
}

// errInstanceClosed rejects adds that arrive at (or after) close.
var errInstanceClosed = errors.New("engine: instance closed")

type ingestReq struct {
	facts []Fact
	resp  chan error
}

func newIngestBatcher(eng *Engine, inst *instance, batchSize int) *ingestBatcher {
	if batchSize < 1 {
		batchSize = 256
	}
	b := &ingestBatcher{
		eng:       eng,
		inst:      inst,
		batchSize: batchSize,
		in:        make(chan *ingestReq, 64),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go b.loop()
	return b
}

// add enqueues a group of facts and blocks until the batch containing them
// has been applied. All facts of one call are applied atomically with
// respect to queries (they land inside one write-lock hold). Exactly one
// outcome is delivered per call: errInstanceClosed means the facts were
// never enqueued; any other return came from the flush that owned the
// request — so an error is never lost and never delivered twice, even when
// close runs concurrently.
func (b *ingestBatcher) add(facts []Fact) error {
	b.addMu.Lock()
	if b.stopped {
		b.addMu.Unlock()
		return errInstanceClosed
	}
	b.adders.Add(1)
	b.addMu.Unlock()
	req := &ingestReq{facts: facts, resp: make(chan error, 1)}
	b.in <- req // the loop drains b.in until close's adders.Wait returns
	b.adders.Done()
	return <-req.resp
}

// close fences out new adds, waits for in-flight sends to land in the
// channel, then stops the loop; its final drain serves every queued
// request. Safe for concurrent callers (Engine.Close racing DropInstance).
func (b *ingestBatcher) close() {
	b.closeOnce.Do(func() {
		b.addMu.Lock()
		b.stopped = true
		b.addMu.Unlock()
		b.adders.Wait()
		close(b.stop)
	})
	<-b.done
}

func (b *ingestBatcher) loop() {
	defer close(b.done)
	for {
		select {
		case req := <-b.in:
			b.flush(b.take(req))
		case <-b.stop:
			// close has fenced out new adds and waited for in-flight sends,
			// so b.in holds every request that will ever arrive, and this
			// loop is its only receiver: serve them all, then exit.
			for len(b.in) > 0 {
				b.flush(b.take(<-b.in))
			}
			return
		}
	}
}

// take returns first plus the requests already queued behind it, stopping
// once the batch holds batchSize facts. It never waits for more.
func (b *ingestBatcher) take(first *ingestReq) []*ingestReq {
	batch := []*ingestReq{first}
	for pending := len(first.facts); pending < b.batchSize; {
		select {
		case req := <-b.in:
			batch = append(batch, req)
			pending += len(req.facts)
		default:
			return batch
		}
	}
	return batch
}

// flush validates every request, write-ahead-logs the valid ones as a
// single record (when durable), and applies them under one write lock.
// Requests are all-or-nothing: a bad fact rejects its whole request and
// nothing of it is applied or logged — so every logged record replays
// cleanly, and the in-memory state never runs ahead of the WAL.
func (b *ingestBatcher) flush(batch []*ingestReq) {
	if len(batch) == 0 {
		return
	}
	valid, rejected := b.validate(batch)
	if len(valid) > 0 {
		var facts []Fact
		for _, req := range valid {
			facts = append(facts, req.facts...)
		}
		// The batch bumps the instance generation by one; the stamp is
		// computed here and written into the WAL record, so replay restores
		// the exact generation every acknowledged batch produced (and with
		// it, result-cache correctness across crashes). Reading version
		// outside the lock is safe: this loop is the instance's only writer.
		b.inst.mu.RLock()
		gen := b.inst.version + 1
		b.inst.mu.RUnlock()
		var delta, newBytes int64
		// Maintenance bookkeeping: pre-insert row counts of the relations
		// this batch touches (rows are append-only, so the inserted facts
		// are exactly the suffix past oldLen), arities of relations the
		// batch creates, and whether any fact replaced an existing tuple's
		// tag — a replacement is a mutation, not an insertion, and voids
		// the additive delta rules for the whole batch.
		oldLen := map[string]int{}
		created := map[string]int{}
		overwrite := false
		var plan []maintainTask
		var newSymbols int
		apply := func(seq uint64) {
			b.inst.mu.Lock()
			symsBefore := b.inst.db.Symbols().Len()
			for _, f := range facts {
				if _, seen := oldLen[f.Rel]; !seen {
					if rel := b.inst.db.Lookup(f.Rel); rel != nil {
						oldLen[f.Rel] = rel.Len()
					} else {
						oldLen[f.Rel] = 0
						created[f.Rel] = len(f.Values)
					}
				}
				if !overwrite {
					if rel := b.inst.db.Lookup(f.Rel); rel != nil && rel.Contains(f.Values...) {
						overwrite = true
					}
				}
				// The size delta must be read before the fact lands: it
				// compares the fact against the current relation state.
				delta += factDelta(b.inst.db, f)
				// Validation guarantees application cannot fail.
				_ = persist.ApplyFact(b.inst.db, f)
			}
			b.inst.bytes += delta
			newBytes = b.inst.bytes
			b.inst.version = gen
			b.inst.lastSeq = seq
			// Every cached result now carries a stale stamp. Purely
			// additive batches keep eligible entries alive for delta
			// maintenance (promoted to gen right after this lock is
			// released, before the batch is acknowledged); anything else
			// falls back to the eager sweep so dead entries don't stay
			// pinned until LRU pressure. Both run under the write lock:
			// evalCached puts only while holding the read lock over the
			// same generation it stamped.
			if overwrite {
				b.inst.results.invalidateAll()
			} else {
				plan = b.inst.results.planMaintenance(gen-1, created)
			}
			newSymbols = b.inst.db.Symbols().Len() - symsBefore
			b.inst.mu.Unlock()
		}
		// A failed commit fails every request of the batch, worded by
		// whether the facts were applied: the caller must not assume a
		// write that was applied but not confirmed durable either way.
		applied, err := b.eng.commit(persist.Record{Op: persist.OpIngest, ID: b.inst.id, Facts: facts, Gen: gen}, apply)
		if err != nil {
			for _, req := range valid {
				req.resp <- err
			}
			valid = nil
		}
		if applied {
			b.eng.noteInstanceBytes(b.inst.id, delta, newBytes)
			if newSymbols > 0 {
				// Distinct values interned (and sketch updates absorbed) by
				// ingest, across all instances — the growth side of the
				// cardinality statistics the join planner reads.
				b.eng.reg.Counter("engine_interned_symbols_total").Add(int64(newSymbols))
			}
			if len(plan) > 0 {
				b.maintain(plan, gen, oldLen)
			}
		}
	}
	for _, req := range valid {
		req.resp <- nil
	}
	for req, err := range rejected {
		req.resp <- err
	}
}

// maintain promotes every surviving cached entry across the batch it just
// applied: the delta rules are evaluated over the inserted row suffixes and
// merged into a copy of each cached result, restamping it to gen. It runs
// in the batcher goroutine between applying a batch and acknowledging it —
// this loop is the instance's only writer, so under the read lock the
// database is exactly the state generation gen names, and once add returns
// to a caller the cache has already been promoted (no window where a
// follow-up query pays a cold re-evaluation). Concurrent readers that miss
// meanwhile re-evaluate at gen and win the put race; promote then leaves
// their fresher entries alone.
func (b *ingestBatcher) maintain(plan []maintainTask, gen uint64, oldLen map[string]int) {
	b.inst.mu.RLock()
	defer b.inst.mu.RUnlock()
	for _, task := range plan {
		start := time.Now()
		delta, err := eval.EvalUCQDelta(task.u, b.inst.db, oldLen)
		if err != nil {
			// planMaintenance filters every known-failing shape; anything
			// that still errors is dropped rather than promoted wrongly.
			b.inst.results.invalidateKey(task.key)
			continue
		}
		b.eng.resStats.deltaEval.Observe(time.Since(start))
		b.inst.results.promote(task.key, gen-1, gen, delta)
	}
}

// validate checks every request's facts against the instance schema before
// anything is logged or applied. The batcher goroutine is the only writer,
// but validation still takes the read lock so it composes with any future
// writer. Relations a valid earlier request would create are visible to
// later requests in the same batch (pending arities); a rejected request
// contributes nothing.
func (b *ingestBatcher) validate(batch []*ingestReq) (valid []*ingestReq, rejected map[*ingestReq]error) {
	rejected = map[*ingestReq]error{}
	pending := map[string]int{}
	b.inst.mu.RLock()
	defer b.inst.mu.RUnlock()
	for _, req := range batch {
		tentative := map[string]int{}
		var err error
		for _, f := range req.facts {
			if err = checkFact(b.inst.db, pending, tentative, f); err != nil {
				break
			}
		}
		if err != nil {
			rejected[req] = err
			continue
		}
		for rel, ar := range tentative {
			pending[rel] = ar
		}
		valid = append(valid, req)
	}
	return valid, rejected
}

// checkFact validates one fact against the live schema plus the arities of
// relations that earlier facts in this batch will create.
func checkFact(d *db.Instance, pending, tentative map[string]int, f Fact) error {
	if f.Rel == "" {
		return fmt.Errorf("fact missing relation name")
	}
	if f.Tag == "" {
		return fmt.Errorf("fact %s%v missing provenance tag", f.Rel, f.Values)
	}
	if rel := d.Lookup(f.Rel); rel != nil {
		if rel.Arity != len(f.Values) {
			return fmt.Errorf("relation %s: tuple %v has arity %d, want %d", f.Rel, f.Values, len(f.Values), rel.Arity)
		}
		return nil
	}
	if ar, ok := pending[f.Rel]; ok && ar != len(f.Values) {
		return fmt.Errorf("relation %s: tuple %v has arity %d, want %d", f.Rel, f.Values, len(f.Values), ar)
	}
	if ar, ok := tentative[f.Rel]; ok && ar != len(f.Values) {
		return fmt.Errorf("relation %s: tuple %v has arity %d, want %d", f.Rel, f.Values, len(f.Values), ar)
	}
	tentative[f.Rel] = len(f.Values)
	return nil
}
