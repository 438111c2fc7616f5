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
// in a single critical section. The batching is writer-led group commit:
// the caller whose request reaches the front of the queue flushes it on
// its own goroutine, together with the requests queued behind it (see
// lead), so batches grow with load while a write to an idle instance is
// applied at once. When the engine is durable, one batch is also one WAL
// record and one (group-shared) fsync. Callers block until their facts
// are durably applied, so the batching is invisible except in throughput.
type ingestBatcher struct {
	eng       *Engine
	inst      *instance
	batchSize int

	// mu guards queue (every request not yet flushed, in arrival order; the
	// front batch stays queued until its flush is done) and closed, which
	// refuses new adds. close waits on drained for the queue to empty.
	mu      sync.Mutex //provlint:lockorder 4
	queue   []*ingestReq
	closed  bool
	drained sync.Cond
}

var (
	// errInstanceClosed rejects adds that arrive at (or after) close.
	errInstanceClosed = errors.New("engine: instance closed")
	// errLead, sent on a request's resp, is not an outcome but a turn to lead.
	errLead = errors.New("engine: lead the next flush")
	// errFlushPanicked fails the requests of a batch whose flush panicked.
	errFlushPanicked = errors.New("engine: ingest flush panicked; write not applied")
)

type ingestReq struct {
	facts []Fact
	// resp never holds two values, so no send on it blocks: the lead comes
	// at most once, and is taken before the flush that sends the outcome.
	resp chan error
}

func newIngestBatcher(eng *Engine, inst *instance, batchSize int) *ingestBatcher {
	if batchSize < 1 {
		batchSize = 256
	}
	b := &ingestBatcher{eng: eng, inst: inst, batchSize: batchSize}
	b.drained.L = &b.mu
	return b
}

// add queues a group of facts and blocks until the batch containing them
// has been applied. All facts of one call are applied atomically with
// respect to queries (they land inside one write-lock hold). Exactly one
// outcome is delivered per call: errInstanceClosed means the facts were
// never queued; any other return came from the flush that owned the
// request — so an error is never lost and never delivered twice, even when
// close runs concurrently.
func (b *ingestBatcher) add(facts []Fact) error {
	req := &ingestReq{facts: facts, resp: make(chan error, 1)}
	if err := b.enqueue(req); err != nil {
		return err
	}
	return b.wait(req)
}

// enqueue queues req unless the batcher is closed; a request that arrives
// at an empty queue gets the lead token at once.
func (b *ingestBatcher) enqueue(req *ingestReq) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errInstanceClosed
	}
	b.queue = append(b.queue, req)
	if len(b.queue) == 1 {
		req.resp <- errLead
	}
	return nil
}

// wait returns req's outcome, leading the flush of req's batch if req
// reaches the front before another leader has flushed it.
func (b *ingestBatcher) wait(req *ingestReq) error {
	if err := <-req.resp; !errors.Is(err, errLead) {
		return err
	}
	b.lead()
	return <-req.resp
}

// lead flushes the front request plus those queued behind it, up to
// batchSize facts and never waiting for more, then hands the lead on. A
// panicking flush still hands it on: its batch's unanswered requests
// fail, and the panic goes up the leader.
func (b *ingestBatcher) lead() {
	b.mu.Lock()
	n, pending := 1, len(b.queue[0].facts)
	for ; n < len(b.queue) && pending < b.batchSize; n++ {
		pending += len(b.queue[n].facts)
	}
	batch := b.queue[:n:n]
	b.mu.Unlock()
	flushed := false
	defer func() {
		if !flushed {
			for _, req := range batch {
				select {
				case req.resp <- errFlushPanicked:
				default: // the flush answered it
				}
			}
		}
		b.handOn(n)
	}()
	b.flush(batch)
	flushed = true
}

// handOn dequeues the n requests of a flushed batch and hands the lead to
// the new front, or wakes close once the queue is empty.
func (b *ingestBatcher) handOn(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	clear(b.queue[:n])
	b.queue = b.queue[n:]
	if len(b.queue) > 0 {
		b.queue[0].resp <- errLead
	} else {
		b.drained.Broadcast()
	}
}

// close refuses new adds and returns once every queued request has been
// flushed: the write fence of a removal. Safe for concurrent and repeated
// callers (Engine.Close racing DropInstance).
func (b *ingestBatcher) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for len(b.queue) > 0 {
		b.drained.Wait()
	}
}

// reopen accepts adds again after a removal that was not applied.
func (b *ingestBatcher) reopen() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = false
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
		// outside the lock is safe: the leader is the instance's only writer.
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
				b.eng.met.internedSymbols.Add(int64(newSymbols))
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
// in the leader's flush between applying a batch and acknowledging it —
// the leader is the instance's only writer, so under the read lock the
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
// anything is logged or applied. The leader is the only writer, but
// validation still takes the read lock so it composes with any future
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
