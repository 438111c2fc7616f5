package engine

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"time"

	"provmin/internal/persist"
)

// This file is the cluster handoff layer: moving instance ownership between
// nodes that share one cold snapshot backend, without row-level re-ingest.
//
//   - ReleaseInstance is the give-up side: snapshot the instance into its
//     cold blob (if resident), write an OpRelease WAL record, and forget it
//     locally. Unlike a drop, the blob stays — it now belongs to whichever
//     node adopts it — so replay must forget the instance without ever
//     GC'ing the blob (see persist.OpRelease).
//   - AdoptInstance is the take-over side: rewrite the blob so its WAL
//     bookkeeping is local-relative, then register it as a cold stub. The
//     first touch faults it in exactly like any evicted instance.
//   - borrowIn is the replica read path: load a blob this node does NOT own
//     as a read-only "borrowed" instance, letting a replica serve reads
//     while the owner is down, without ever acting like the owner.
//
// The LastSeq rewrite in AdoptInstance is load-bearing. A blob's LastSeq is
// a sequence number in the *originating node's* WAL; replayed against this
// node's WAL it would be garbage — typically large, making replay skip
// every local ingest record that follows a fault-in (silent data loss).
// Resetting it to zero makes the blob look like a fresh instance to the
// local history: fault-in records anchor it, and every later local ingest
// replays on top.

// AdoptInstance takes local ownership of an instance whose blob lives in
// the shared cold backend: the rebalance destination, and the AdoptOwned
// heal for the crash window between a peer's release and our adopt. It is
// idempotent — an id already resident (owned) or cold is left untouched. A
// resident borrowed copy is discarded first: the blob supersedes it, and
// adopting promotes this node from reader to owner. No WAL record is
// written; if we crash before the first fault-in, the ring-filtered
// AdoptCold at next boot re-adopts the blob.
func (e *Engine) AdoptInstance(ctx context.Context, id string) error {
	if e.backend == nil {
		return ErrNoTiering
	}
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
	if resident {
		if !in.borrowed {
			return nil
		}
		e.discardBorrowed(in)
	} else if cold {
		return nil
	}

	raw, err := e.backend.Get(ctx, id)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w %q (no cold blob to adopt)", ErrUnknownInstance, id)
		}
		return fmt.Errorf("adopt %s: %w", id, err)
	}
	st, err := persist.DecodeInstanceBlob(raw)
	if err != nil {
		return fmt.Errorf("adopt %s: %w", id, err)
	}
	if st.ID != id {
		return fmt.Errorf("adopt %s: blob carries instance id %q", id, st.ID)
	}
	// Rebase the blob into this node's WAL sequence space: a foreign
	// LastSeq replayed locally would make recovery skip local ingest
	// records. Rewriting before registering keeps the invariant that every
	// cold blob in the registry is replayable against the local log.
	if st.LastSeq != 0 {
		st.LastSeq = 0
		rebased, err := persist.EncodeInstanceBlob(st)
		if err != nil {
			return fmt.Errorf("adopt %s: %w", id, err)
		}
		if err := e.backend.Put(ctx, id, rebased); err != nil {
			return fmt.Errorf("adopt %s: %w", id, err)
		}
	}

	info := InstanceInfo{
		ID:        id,
		Relations: len(st.DB.Relations()),
		Tuples:    st.DB.NumTuples(),
		Version:   st.Version,
		State:     "cold",
	}
	adopted := false
	sh.mu.Lock()
	if !e.closed.Load() {
		if _, dup := sh.instances[id]; !dup {
			if _, dup := sh.cold[id]; !dup {
				sh.cold[id] = info
				sh.coldCount.Add(1)
				adopted = true
			}
		}
	}
	sh.mu.Unlock()
	if !adopted {
		return ErrClosed
	}
	// Generated ids must never collide with an adopted one.
	if n := numericInstanceID(id); n > 0 {
		for {
			cur := e.nextID.Load()
			if n <= cur || e.nextID.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	e.reg.Counter("engine_adopts_total").Inc()
	e.updateShardGauges()
	return nil
}

// ReleaseInstance gives up local ownership of an instance for a cluster
// handoff: its current state is made durable in the cold blob, an
// OpRelease record makes the local WAL forget it (without ever marking it
// dropped — the blob now belongs to the adopting node), and the RAM copy
// is discarded. A borrowed copy is simply discarded; releasing an unknown
// id is ErrUnknownInstance.
func (e *Engine) ReleaseInstance(ctx context.Context, id string) error {
	if e.backend == nil {
		return ErrNoTiering
	}
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
	switch {
	case resident && in.borrowed:
		e.discardBorrowed(in)
		return nil
	case resident:
		return e.releaseResident(ctx, in)
	case cold:
		return e.releaseCold(id)
	default:
		return fmt.Errorf("%w %q", ErrUnknownInstance, id)
	}
}

// releaseResident snapshots a resident owned instance into its blob and
// forgets it. Caller holds closeMu.RLock and the id's flight lock.
func (e *Engine) releaseResident(ctx context.Context, in *instance) error {
	id := in.id
	sh := e.shardOf(id)
	// Same write fence as eviction: after close returns, nothing mutates
	// the database, so the captured blob is the instance's final state.
	in.currentBatcher().close()

	in.mu.RLock()
	st := persist.InstanceState{ID: id, DB: in.db, Version: in.version, LastSeq: in.lastSeq}
	blob, err := persist.EncodeInstanceBlob(st)
	bytes := in.bytes
	in.mu.RUnlock()
	if err == nil {
		err = e.backend.Put(ctx, id, blob)
	}
	if err != nil {
		e.reviveBatcher(in)
		return fmt.Errorf("release %s: %w", id, err)
	}

	removed := false
	remove := func(uint64) {
		sh.mu.Lock()
		if cur, ok := sh.instances[id]; ok && cur == in {
			delete(sh.instances, id)
			sh.count.Add(-1)
			removed = true
		}
		sh.mu.Unlock()
	}
	if e.log != nil {
		if _, err := e.log.Commit(persist.Record{Op: persist.OpRelease, ID: id}, remove); err != nil {
			if !removed {
				e.reviveBatcher(in)
				return fmt.Errorf("release %s: %w", id, err)
			}
			// Applied but fsync unconfirmed: the blob is durable, so if the
			// release record is lost, replay resurrects the instance locally
			// — both nodes may own it until the next rebalance, never
			// neither. Report like other post-apply sync failures.
			e.finishRelease(in, bytes)
			return fmt.Errorf("release %s: applied but not confirmed durable: %w", id, err)
		}
	} else {
		remove(0)
	}
	if !removed {
		return fmt.Errorf("%w %q", ErrUnknownInstance, id)
	}
	e.finishRelease(in, bytes)
	return nil
}

// releaseCold forgets an already-cold instance: its blob is current by
// construction (eviction wrote it and cold state never mutates), so only
// the stub and the WAL history need to go.
func (e *Engine) releaseCold(id string) error {
	sh := e.shardOf(id)
	removed := false
	remove := func(uint64) {
		sh.mu.Lock()
		if _, ok := sh.cold[id]; ok {
			delete(sh.cold, id)
			sh.coldCount.Add(-1)
			removed = true
		}
		sh.mu.Unlock()
	}
	if e.log != nil {
		if _, err := e.log.Commit(persist.Record{Op: persist.OpRelease, ID: id}, remove); err != nil {
			if !removed {
				return fmt.Errorf("release %s: %w", id, err)
			}
			e.reg.Counter("engine_releases_total").Inc()
			e.updateShardGauges()
			return fmt.Errorf("release %s: applied but not confirmed durable: %w", id, err)
		}
	} else {
		remove(0)
	}
	if !removed {
		return fmt.Errorf("%w %q", ErrUnknownInstance, id)
	}
	e.reg.Counter("engine_releases_total").Inc()
	e.updateShardGauges()
	return nil
}

// finishRelease settles accounting after the registry forgot a resident
// instance (mirrors finishEvict, without the eviction metrics).
func (e *Engine) finishRelease(in *instance, bytes int64) {
	in.results.purge()
	e.tracker.Remove(in.id)
	e.residentBytes.Add(-bytes)
	e.reg.Counter("engine_releases_total").Inc()
	e.updateShardGauges()
}

// borrowIn loads another node's cold blob as a read-only borrowed copy —
// the replica read path when the ring owner is unreachable. No WAL record
// is written and the blob is read, never overwritten: the copy is a
// snapshot at borrow time, discarded by evict/drop/release and refreshed
// only by being discarded and borrowed again.
func (e *Engine) borrowIn(id string) error {
	if e.backend == nil {
		return ErrNoTiering
	}
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
	if resident || cold {
		return nil // lookup's retry will find (or fault in) the local entry
	}

	start := time.Now()
	raw, err := e.backend.Get(context.Background(), id)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w %q", ErrUnknownInstance, id)
		}
		return fmt.Errorf("borrow %s: %w", id, err)
	}
	st, err := persist.DecodeInstanceBlob(raw)
	if err != nil {
		return fmt.Errorf("borrow %s: %w", id, err)
	}
	if st.ID != id {
		return fmt.Errorf("borrow %s: blob carries instance id %q", id, st.ID)
	}

	in := &instance{id: id, borrowed: true, db: st.DB, version: st.Version, bytes: instanceCost(st.DB)}
	in.results = e.newResultCache()
	in.batcher = newIngestBatcher(e, in, e.cfg.IngestBatchSize)

	installed := false
	sh.mu.Lock()
	if !e.closed.Load() {
		if _, dup := sh.instances[id]; !dup {
			sh.instances[id] = in
			sh.count.Add(1)
			installed = true
		}
	}
	sh.mu.Unlock()
	if !installed {
		in.batcher.close()
		return ErrClosed
	}
	in.mu.RLock()
	bytes := in.bytes
	in.mu.RUnlock()
	e.tracker.Add(id, bytes, time.Now())
	e.residentBytes.Add(bytes)
	e.reg.Counter("engine_borrows_total").Inc()
	e.reg.Histogram("engine_borrow_seconds").Observe(time.Since(start))
	e.updateShardGauges()
	return nil
}

// discardBorrowed drops a borrowed copy from RAM: no WAL record (it was
// never in the local history) and no blob GC (the blob is the owner's).
// Returns whether this call removed it. Caller holds the id's flight lock.
func (e *Engine) discardBorrowed(in *instance) bool {
	id := in.id
	sh := e.shardOf(id)
	removed := false
	sh.mu.Lock()
	if cur, ok := sh.instances[id]; ok && cur == in {
		delete(sh.instances, id)
		sh.count.Add(-1)
		removed = true
	}
	sh.mu.Unlock()
	if !removed {
		return false
	}
	in.mu.RLock()
	bytes := in.bytes
	in.mu.RUnlock()
	e.residentBytes.Add(-bytes)
	e.tracker.Remove(id)
	in.currentBatcher().close()
	in.results.purge()
	e.reg.Counter("engine_borrow_discards_total").Inc()
	e.updateShardGauges()
	return true
}
