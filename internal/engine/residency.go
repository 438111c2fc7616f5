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
// Evict and fault-in are registry transitions (registry.go): the id's
// flight lock serializes them with every other transition of the id and
// makes fault-in single-flight — concurrent requests for one cold
// instance load its blob exactly once, the rest wait on the flight and
// find the instance resident. The tracker's internal mutex is a leaf.

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

// EvictInstance snapshots a resident instance into the cold backend and
// releases its RAM copy. The ingest batcher is closed first, so an
// instance is never evicted mid-batch: the close applies every queued
// write, after which nothing mutates the database again. Evicting an
// already-cold instance is a no-op; an unknown id is ErrUnknownInstance.
func (e *Engine) EvictInstance(id string) error {
	if e.backend == nil {
		return ErrNoTiering
	}
	return e.transition(id, func(in *instance, cold bool) error {
		switch {
		case in == nil && cold:
			return nil
		case in == nil:
			return fmt.Errorf("%w %q", ErrUnknownInstance, id)
		case in.borrowed:
			// Evicting a borrowed copy just discards it: its authoritative
			// state is the owning node's blob — writing ours back could
			// clobber a newer one, and a WAL record would resurrect foreign
			// state.
			e.discardBorrowed(in)
			return nil
		}
		start := time.Now()
		// The eviction fence: ingest callers that lose this race get
		// errInstanceClosed and retry through waitResidency + fault-in.
		in.batcher.close()
		if err := e.toBlob(context.Background(), in.state()); err != nil {
			in.batcher.reopen()
			e.met.evictErrors.Inc()
			return fmt.Errorf("evict %s: %w", id, err)
		}
		// The blob is durable; now flip the registry entry cold. The WAL
		// record makes replay skip this instance's history (its state lives
		// in the blob) — ordering blob-then-record means a crash between the
		// two just leaves a stale blob that the next eviction overwrites. If
		// the record is applied but its sync fails, a crash replays the
		// instance resident: more state than acknowledged, never less.
		applied, err := e.retire(in, persist.Record{Op: persist.OpEvict, ID: id}, true)
		if !applied {
			e.met.evictErrors.Inc()
			return err
		}
		e.met.evictions.Inc()
		e.met.evict.Observe(time.Since(start))
		return err
	})
}

// faultIn loads a cold instance's blob and installs it resident. Callers
// arrive from lookup after seeing a cold entry; the flight lock makes the
// load single-flight — every concurrent caller past the first finds the
// instance already resident and returns without touching the backend.
func (e *Engine) faultIn(id string) error {
	return e.transition(id, func(in *instance, cold bool) error {
		if in != nil {
			return nil // another flight won the race; lookup retries and hits
		}
		if !cold {
			return fmt.Errorf("%w %q", ErrUnknownInstance, id)
		}
		start := time.Now()
		st, err := e.loadBlob(context.Background(), id)
		if err != nil {
			e.met.faultInErrors.Inc()
			if errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("fault-in %s: cold snapshot blob missing from %s: %w", id, e.backend.String(), err)
			}
			return fmt.Errorf("fault-in %s: %w", id, err)
		}
		in = e.newInstance(st, false)
		// The fault-in record marks where the blob re-enters the history:
		// replay loads it here and layers later ingest records on top. An
		// applied-but-unsynced fault-in record is benign on its own: if it
		// is lost, replay leaves the instance cold and the blob still covers
		// it. Any later acknowledged ingest on this shard fsyncs behind it,
		// making it durable before it matters.
		applied, err := e.commit(persist.Record{Op: persist.OpFaultIn, ID: id}, func(seq uint64) {
			in.lastSeq = max(in.lastSeq, seq)
			e.link(in)
		})
		if !applied {
			e.met.faultInErrors.Inc()
			return err
		}
		e.met.faultIns.Inc()
		e.met.faultIn.Observe(time.Since(start))
		return nil
	})
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
	for _, id := range ids {
		// The id-counter bump looks at every listed blob, owned or not:
		// generated ids must not collide with any instance in a shared
		// bucket, whoever owns it — including ids that exist only as blobs
		// (orphaned from a wiped data dir, or an object store shared across
		// rebuilds).
		e.raiseNextID(numericInstanceID(id))
		if owns != nil && !owns(id) {
			continue
		}
		if dropped[id] {
			if err := e.backend.Delete(ctx, id); err != nil {
				e.met.blobGCFails.Inc()
			} else {
				e.met.blobGC.Inc()
			}
			continue
		}
		// Boot-discovered entry: tuple/relation counts unknown until first
		// fault-in (listing must not load blobs).
		e.addCold(InstanceInfo{ID: id, State: "cold"})
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
	info.Evictions = e.met.evictions.Value()
	info.FaultIns = e.met.faultIns.Value()
	return info
}

// noteInstanceBytes settles accounting after an ingest batch changed an
// instance's approximate size.
func (e *Engine) noteInstanceBytes(id string, delta, newBytes int64) {
	e.residentBytes.Add(delta)
	e.met.residentBytes.Set(e.residentBytes.Load())
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
