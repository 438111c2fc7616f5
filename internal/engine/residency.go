package engine

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"time"

	"provmin/internal/db"
	"provmin/internal/persist"
)

// This file is the residency layer: the engine side of tiered instance
// storage (internal/tier). With a snapshot backend configured, every
// instance is either *resident* (in a registry shard, fully queryable) or
// *cold* (a blob in the backend plus a stub entry in the shard's cold
// map). Evicting snapshots a resident instance into its blob and releases
// the RAM copy; any engine call that touches a cold instance faults it
// back in transparently. A janitor enforces the byte budget and the
// cold-after idle deadline using the tier.Tracker's LRU order.
//
// Per-id residency transitions (evict, fault-in, drop) are serialized by a
// flight mutex, which also makes fault-in single-flight: concurrent
// requests for one cold instance load its blob exactly once, the rest wait
// on the flight and find the instance resident. Lock ordering: the flight
// mutex is taken before everything else (WAL shard mutex, regShard.mu,
// instance.mu); the tracker's internal mutex is a leaf.

// ErrNoTiering is returned by EvictInstance when no snapshot backend is
// configured — a deployment-shape condition (HTTP 409), like
// ErrNoPersistence.
var ErrNoTiering = errors.New("engine: tiered storage disabled (no snapshot backend)")

// faultInRetries bounds the lookup retry loop: each round trip means the
// instance was evicted again between fault-in and use, so more than a few
// indicates budget thrashing, not a transient race.
const faultInRetries = 8

// Tiered reports whether a snapshot backend is configured.
func (e *Engine) Tiered() bool { return e.backend != nil }

// resFlight is one id's residency transition lock (see lockResidency).
type resFlight struct {
	mu   chan struct{} // 1-buffered: a mutex that supports try-free cleanup
	refs int
}

// lockResidency acquires the per-id residency flight mutex and returns its
// release func. The flight map holds an entry only while someone holds or
// waits for the lock, so idle instances cost nothing.
func (e *Engine) lockResidency(id string) func() {
	e.resMu.Lock()
	fl := e.resFlights[id]
	if fl == nil {
		fl = &resFlight{mu: make(chan struct{}, 1)}
		e.resFlights[id] = fl
	}
	fl.refs++
	e.resMu.Unlock()
	fl.mu <- struct{}{}
	return func() {
		<-fl.mu
		e.resMu.Lock()
		fl.refs--
		if fl.refs == 0 {
			delete(e.resFlights, id)
		}
		e.resMu.Unlock()
	}
}

// waitResidency blocks until no residency transition is in flight for id —
// the barrier Ingest uses after losing a race with an eviction, instead of
// spinning on lookups while the evict completes.
func (e *Engine) waitResidency(id string) {
	e.lockResidency(id)()
}

// EvictInstance snapshots a resident instance into the cold backend and
// releases its RAM copy. The ingest batcher is closed first, so an
// instance is never evicted mid-batch: the close waits for the batcher
// loop to drain, after which nothing mutates the database again. Evicting
// an already-cold instance is a no-op; an unknown id is ErrUnknownInstance.
func (e *Engine) EvictInstance(id string) error {
	if e.backend == nil {
		return ErrNoTiering
	}
	// Hold the shutdown barrier across the whole eviction (blob write and
	// WAL record): Close waits this out before its final log sync, so an
	// acknowledged evict record can never be lost behind it.
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		return ErrClosed
	}
	release := e.lockResidency(id)
	defer release()

	sh := e.shardOf(id)
	sh.mu.RLock()
	in, resident := sh.instances[id]
	_, cold := sh.cold[id]
	sh.mu.RUnlock()
	if !resident {
		if cold {
			return nil
		}
		return fmt.Errorf("%w %q", ErrUnknownInstance, id)
	}
	if in.borrowed {
		// Evicting a borrowed copy just discards it: its authoritative state
		// is the owning node's blob — writing ours back could clobber a
		// newer one, and a WAL record would resurrect foreign state.
		e.discardBorrowed(in)
		return nil
	}

	start := time.Now()
	// The eviction fence: no new ingests are accepted and the in-flight
	// batch (if any) finishes applying before close returns. Ingest callers
	// that lose this race get errInstanceClosed and retry through
	// waitResidency + fault-in.
	in.currentBatcher().close()

	// Queries may still hold the read lock; the capture is consistent
	// because the batcher — the only writer — is gone.
	in.mu.RLock()
	st := persist.InstanceState{ID: id, DB: in.db, Version: in.version, LastSeq: in.lastSeq}
	blob, err := persist.EncodeInstanceBlob(st)
	info := InstanceInfo{
		ID:        id,
		Relations: len(in.db.Relations()),
		Tuples:    in.db.NumTuples(),
		Version:   in.version,
		State:     "cold",
	}
	bytes := in.bytes
	in.mu.RUnlock()
	if err == nil {
		err = e.backend.Put(context.Background(), id, blob)
	}
	if err != nil {
		e.reviveBatcher(in)
		e.reg.Counter("engine_evict_errors_total").Inc()
		return fmt.Errorf("evict %s: %w", id, err)
	}

	// Blob is durable; now flip the registry entry cold. The WAL record
	// makes replay skip this instance's history (its state lives in the
	// blob) — ordering blob-then-record means a crash between the two just
	// leaves a stale blob that the next eviction overwrites.
	transitioned := false
	flip := func(uint64) {
		sh.mu.Lock()
		if cur, ok := sh.instances[id]; ok && cur == in {
			delete(sh.instances, id)
			sh.count.Add(-1)
			sh.cold[id] = info
			sh.coldCount.Add(1)
			transitioned = true
		}
		sh.mu.Unlock()
	}
	if e.log != nil {
		if _, err := e.log.Commit(persist.Record{Op: persist.OpEvict, ID: id}, flip); err != nil {
			if !transitioned {
				e.reviveBatcher(in)
				e.reg.Counter("engine_evict_errors_total").Inc()
				return fmt.Errorf("evict %s: %w", id, err)
			}
			// Applied but fsync unconfirmed: the instance is cold in memory
			// and the blob is durable, so a crash replays it resident (the
			// evict record may be lost) — more state than acknowledged,
			// never less. Report like other post-apply sync failures.
			e.finishEvict(in, bytes, start)
			return fmt.Errorf("evict %s: applied but not confirmed durable: %w", id, err)
		}
	} else {
		flip(0)
	}
	if !transitioned {
		// Lost a race with DropInstance (or Close collected the shard):
		// nothing to release; the blob is stale and drop GC handles it.
		return fmt.Errorf("%w %q", ErrUnknownInstance, id)
	}
	e.finishEvict(in, bytes, start)
	return nil
}

// finishEvict settles accounting after a successful registry flip.
func (e *Engine) finishEvict(in *instance, bytes int64, start time.Time) {
	in.results.purge()
	e.tracker.Remove(in.id)
	e.residentBytes.Add(-bytes)
	e.reg.Counter("engine_evictions_total").Inc()
	e.reg.Histogram("engine_evict_seconds").Observe(time.Since(start))
	e.updateShardGauges()
}

// reviveBatcher replaces a closed batcher on an instance that stays
// resident after an aborted eviction. Skipped while the engine is closing:
// Close has already collected its batcher list, and a fresh loop would
// leak.
func (e *Engine) reviveBatcher(in *instance) {
	if e.closed.Load() {
		return
	}
	in.mu.Lock()
	in.batcher = newIngestBatcher(e, in, e.cfg.IngestBatchSize)
	in.mu.Unlock()
}

// faultIn loads a cold instance's blob and installs it resident. Callers
// arrive from lookup after seeing a cold entry; the flight mutex makes the
// load single-flight — every concurrent caller past the first finds the
// instance already resident and returns without touching the backend.
func (e *Engine) faultIn(id string) error {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		return ErrClosed
	}
	release := e.lockResidency(id)
	defer release()

	sh := e.shardOf(id)
	sh.mu.RLock()
	_, resident := sh.instances[id]
	_, cold := sh.cold[id]
	sh.mu.RUnlock()
	if resident {
		return nil // another flight won the race; lookup retries and hits
	}
	if !cold {
		return fmt.Errorf("%w %q", ErrUnknownInstance, id)
	}

	start := time.Now()
	raw, err := e.backend.Get(context.Background(), id)
	if err != nil {
		e.reg.Counter("engine_faultin_errors_total").Inc()
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("fault-in %s: cold snapshot blob missing from %s: %w", id, e.backend.String(), err)
		}
		return fmt.Errorf("fault-in %s: %w", id, err)
	}
	st, err := persist.DecodeInstanceBlob(raw)
	if err != nil {
		e.reg.Counter("engine_faultin_errors_total").Inc()
		return fmt.Errorf("fault-in %s: %w", id, err)
	}
	if st.ID != id {
		e.reg.Counter("engine_faultin_errors_total").Inc()
		return fmt.Errorf("fault-in %s: blob carries instance id %q", id, st.ID)
	}

	in := &instance{id: id, db: st.DB, version: st.Version, lastSeq: st.LastSeq, bytes: instanceCost(st.DB)}
	in.results = e.newResultCache()
	in.batcher = newIngestBatcher(e, in, e.cfg.IngestBatchSize)

	installed := false
	install := func(seq uint64) {
		if seq > in.lastSeq {
			in.lastSeq = seq
		}
		sh.mu.Lock()
		if !e.closed.Load() {
			delete(sh.cold, id)
			sh.coldCount.Add(-1)
			sh.instances[id] = in
			sh.count.Add(1)
			installed = true
		}
		sh.mu.Unlock()
	}
	if e.log != nil {
		// The fault-in record marks where the blob re-enters the history:
		// replay loads it here and layers later ingest records on top.
		if _, err := e.log.Commit(persist.Record{Op: persist.OpFaultIn, ID: id}, install); err != nil && !installed {
			in.batcher.close()
			e.reg.Counter("engine_faultin_errors_total").Inc()
			return fmt.Errorf("fault-in %s: %w", id, err)
		}
		// An applied-but-unsynced fault-in record is benign on its own: if
		// it is lost, replay leaves the instance cold and the blob still
		// covers it. Any later acknowledged ingest on this shard fsyncs
		// behind it, making it durable before it matters.
	} else {
		install(0)
	}
	if !installed {
		in.batcher.close()
		return ErrClosed
	}
	in.mu.RLock()
	bytes := in.bytes
	in.mu.RUnlock()
	e.tracker.Add(id, bytes, time.Now())
	e.residentBytes.Add(bytes)
	e.reg.Counter("engine_faultins_total").Inc()
	e.reg.Histogram("engine_faultin_seconds").Observe(time.Since(start))
	e.updateShardGauges()
	return nil
}

// EnforceResidency runs one janitor pass: ask the tracker for LRU victims
// over the byte budget or past the idle deadline, and evict them. Returns
// the number evicted. Exported so tests (and embedders without the janitor
// goroutine) can drive enforcement deterministically.
func (e *Engine) EnforceResidency() int {
	if e.backend == nil || e.closed.Load() {
		return 0
	}
	var deadline time.Time
	if e.cfg.ColdAfter > 0 {
		deadline = time.Now().Add(-e.cfg.ColdAfter)
	}
	n := 0
	for _, id := range e.tracker.VictimsOver(e.cfg.ResidentBudgetBytes, deadline) {
		// A victim touched since selection is evicted anyway — the budget
		// is a hard bound and LRU selection is an approximation; its next
		// use faults it back in.
		if err := e.EvictInstance(id); err == nil {
			n++
		}
	}
	return n
}

// janitor periodically enforces the residency budget until Close.
func (e *Engine) janitor(interval time.Duration) {
	defer close(e.janitorDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-e.janitorStop:
			return
		case <-t.C:
			e.EnforceResidency()
		}
	}
}

// AdoptCold composes tiering with crash recovery: it lists the backend and
// registers every blob whose instance is neither resident nor dropped as a
// cold entry — *without* loading it, so a host with a large cold
// population boots in O(listing). Blobs of dropped instances are deleted
// (the live deletion may have been lost to a crash); blobs of resident
// instances are left in place — they look stale, but WAL replay needs them
// at fault-in records until a compaction covers the resident state. Call
// once after New, before serving.
//
// owns filters adoption on a shared backend: nil adopts every blob (the
// single-node deployment); in a cluster each node passes its consistent-
// hash ownership predicate, so two nodes listing one bucket never both
// claim an instance. Unowned blobs are left completely alone — not
// adopted, and not GC'd even when this node's WAL says dropped, because a
// re-created instance of the same id may now live under another owner.
func (e *Engine) AdoptCold(ctx context.Context, owns func(id string) bool) error {
	if e.backend == nil {
		return nil
	}
	ids, err := e.backend.List(ctx)
	if err != nil {
		return fmt.Errorf("engine: list cold backend %s: %w", e.backend.String(), err)
	}
	dropped := map[string]bool{}
	if e.log != nil {
		for _, id := range e.log.DroppedIDs() {
			dropped[id] = true
		}
	}
	var maxID uint64
	for _, id := range ids {
		// The id-counter bump looks at every listed blob, owned or not:
		// generated ids must not collide with any instance in a shared
		// bucket, whoever owns it.
		if n := numericInstanceID(id); n > maxID {
			maxID = n
		}
		if owns != nil && !owns(id) {
			continue
		}
		if dropped[id] {
			if err := e.backend.Delete(ctx, id); err != nil {
				e.reg.Counter("engine_blob_gc_failures_total").Inc()
			} else {
				e.reg.Counter("engine_blob_gc_total").Inc()
			}
			continue
		}
		sh := e.shardOf(id)
		sh.mu.Lock()
		_, resident := sh.instances[id]
		_, cold := sh.cold[id]
		if !resident && !cold {
			// Boot-discovered entry: tuple/relation counts unknown until
			// first fault-in (listing must not load blobs).
			sh.cold[id] = InstanceInfo{ID: id, State: "cold"}
			sh.coldCount.Add(1)
		}
		sh.mu.Unlock()
	}
	// Ids that exist only as blobs (orphaned from a wiped data dir, or an
	// object store shared across rebuilds) must not be reissued to creates.
	for {
		cur := e.nextID.Load()
		if maxID <= cur || e.nextID.CompareAndSwap(cur, maxID) {
			break
		}
	}
	e.updateShardGauges()
	return nil
}

// numericInstanceID extracts n from an engine-generated id "i<n>"; 0 for
// foreign ids.
func numericInstanceID(id string) uint64 {
	if !strings.HasPrefix(id, "i") {
		return 0
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// ResidentEntry is one resident instance in a residency report.
type ResidentEntry struct {
	ID     string `json:"id"`
	Bytes  int64  `json:"bytes"`
	IdleMS int64  `json:"idle_ms"`
}

// ResidencyInfo is the /admin/residency payload. Building it never faults
// anything in — it is the observability window the cold tier is judged by.
type ResidencyInfo struct {
	Enabled       bool            `json:"enabled"`
	Backend       string          `json:"backend,omitempty"`
	BudgetBytes   int64           `json:"budget_bytes,omitempty"`
	ColdAfterMS   int64           `json:"cold_after_ms,omitempty"`
	ResidentBytes int64           `json:"resident_bytes"`
	Resident      []ResidentEntry `json:"resident"`
	Cold          []string        `json:"cold"`
	Evictions     int64           `json:"evictions"`
	FaultIns      int64           `json:"fault_ins"`
}

// Residency reports the current residency state.
func (e *Engine) Residency() ResidencyInfo {
	info := ResidencyInfo{
		Enabled:       e.backend != nil,
		ResidentBytes: e.residentBytes.Load(),
		Resident:      []ResidentEntry{},
		Cold:          []string{},
	}
	if e.backend != nil {
		info.Backend = e.backend.String()
		info.BudgetBytes = e.cfg.ResidentBudgetBytes
		info.ColdAfterMS = e.cfg.ColdAfter.Milliseconds()
		now := time.Now()
		for _, en := range e.tracker.Snapshot() {
			info.Resident = append(info.Resident, ResidentEntry{
				ID:     en.ID,
				Bytes:  en.Bytes,
				IdleMS: now.Sub(en.LastUsed).Milliseconds(),
			})
		}
	} else {
		// Untiered engines still report per-instance bytes, sorted by id.
		for _, sh := range e.shards {
			sh.mu.RLock()
			for _, in := range sh.instances {
				in.mu.RLock()
				info.Resident = append(info.Resident, ResidentEntry{ID: in.id, Bytes: in.bytes})
				in.mu.RUnlock()
			}
			sh.mu.RUnlock()
		}
		sort.Slice(info.Resident, func(i, j int) bool { return info.Resident[i].ID < info.Resident[j].ID })
	}
	for _, sh := range e.shards {
		sh.mu.RLock()
		for id := range sh.cold {
			info.Cold = append(info.Cold, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(info.Cold)
	info.Evictions = e.reg.Counter("engine_evictions_total").Value()
	info.FaultIns = e.reg.Counter("engine_faultins_total").Value()
	return info
}

// noteInstanceBytes settles accounting after an ingest batch changed an
// instance's approximate size.
func (e *Engine) noteInstanceBytes(id string, delta, newBytes int64) {
	e.residentBytes.Add(delta)
	e.reg.Gauge("engine_resident_bytes").Set(e.residentBytes.Load())
	if e.backend != nil {
		e.tracker.SetBytes(id, newBytes)
	}
}

// instanceCost approximates an instance's resident size in bytes, in the
// same spirit as resultCost: string payloads plus fixed per-row and
// per-relation overheads. Fairness across instances is what matters — the
// figure drives the LRU budget, it is not an allocator.
func instanceCost(d *db.Instance) int64 {
	n := int64(96) // Instance header, relation map
	for _, r := range d.Relations() {
		n += relationBaseCost
		for _, row := range r.Rows() {
			n += rowCost(row.Tag, row.Tuple)
		}
	}
	return n
}

// relationBaseCost covers a Relation struct, its name and map headers.
const relationBaseCost = 160

// rowCost covers one tagged tuple: Row struct, byKey entry and payloads.
func rowCost(tag string, values []string) int64 {
	n := int64(64) + int64(len(tag))
	for _, v := range values {
		n += int64(len(v)) + 16
	}
	return n
}

// factDelta predicts how applying f changes the owning instance's cost.
// Must be called before persist.ApplyFact mutates the database, under the
// instance write lock.
func factDelta(d *db.Instance, f Fact) int64 {
	rel := d.Lookup(f.Rel)
	if rel == nil {
		return relationBaseCost + rowCost(f.Tag, f.Values)
	}
	if rel.Contains(f.Values...) {
		return int64(len(f.Tag) - len(rel.TagOf(f.Values...)))
	}
	return rowCost(f.Tag, f.Values)
}
