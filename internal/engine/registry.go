package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"provmin/internal/persist"
)

// This file is the registry's transition protocol, written once. Every
// change to which instances exist and in which tier — create, drop, evict,
// fault-in, release, adopt, borrow and discard — runs inside transition,
// writes the log only through commit, and changes the shard maps and the
// resident accounting only through link, unlink, addCold and forgetCold.
// Boot-time recovery (New) and cold adoption (AdoptCold) reuse the same
// helpers.
//
// A removal of a resident instance (drop, evict, release, discard) first
// closes the instance's ingest batcher. That close is the write fence: it
// refuses new writes and applies the ones already queued, so every write
// acknowledged for the instance is logged before the removal record and
// none after it. An ingest that loses to the fence waits for the
// transition on the id's flight lock (waitResidency) and retries against
// the settled registry.

// resFlight is one id's flight lock. refs counts its holder and waiters,
// so the entry leaves the flight map with the last of them.
type resFlight struct {
	mu   sync.Mutex
	refs int
}

// lockResidency acquires the per-id flight lock; unlockResidency releases
// it. The flight map holds an entry only while someone holds or waits for
// the lock, so idle instances cost nothing.
func (e *Engine) lockResidency(id string) *resFlight {
	e.resMu.Lock()
	fl := e.resFlights[id]
	if fl == nil {
		fl = &resFlight{}
		e.resFlights[id] = fl
	}
	fl.refs++
	e.resMu.Unlock()
	fl.mu.Lock()
	return fl
}

func (e *Engine) unlockResidency(id string, fl *resFlight) {
	fl.mu.Unlock()
	e.resMu.Lock()
	fl.refs--
	if fl.refs == 0 {
		delete(e.resFlights, id)
	}
	e.resMu.Unlock()
}

// waitResidency blocks until no transition is in flight for id — the
// barrier Ingest uses after losing a race with a fence, instead of
// spinning on lookups while the transition completes.
func (e *Engine) waitResidency(id string) {
	e.unlockResidency(id, e.lockResidency(id))
}

// transition runs fn as one registry transition of id. It holds the close
// barrier's read side, so Close waits for fn before its final log sync and
// a transition that starts after Close returns ErrClosed, and it holds the
// id's flight lock, which serializes the transitions of one id and makes
// fault-in single-flight. fn gets the id's resident instance (nil if none)
// and whether a cold stub is registered; only fn can change either before
// it returns.
func (e *Engine) transition(id string, fn func(in *instance, cold bool) error) error {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		return ErrClosed
	}
	fl := e.lockResidency(id)
	defer e.unlockResidency(id, fl)
	sh := e.shardOf(id)
	sh.mu.RLock()
	in := sh.instances[id]
	_, cold := sh.cold[id]
	sh.mu.RUnlock()
	defer e.updateShardGauges()
	return fn(in, cold)
}

// commit is the engine's only write-ahead path: it logs rec and runs apply
// with the record's sequence number under the record's WAL stripe lock, so
// memory never runs ahead of the log. An ephemeral engine applies at once.
// applied reports whether apply ran, and a failure says the same in words:
// "not applied" (nothing changed) or "applied but not confirmed durable"
// (the change is live, and a crash may or may not keep it).
func (e *Engine) commit(rec persist.Record, apply func(seq uint64)) (applied bool, err error) {
	if e.log == nil {
		apply(0)
		return true, nil
	}
	_, err = e.log.Commit(rec, func(seq uint64) {
		applied = true
		apply(seq)
	})
	switch {
	case err == nil:
		return true, nil
	case applied:
		return true, fmt.Errorf("%s %s: applied but not confirmed durable: %w", rec.Op, rec.ID, err)
	default:
		return false, fmt.Errorf("%s %s: not applied: %w", rec.Op, rec.ID, err)
	}
}

// newInstance builds the in-memory form of st with an empty result cache
// and an open batcher. Nothing can reach it until link.
func (e *Engine) newInstance(st persist.InstanceState, borrowed bool) *instance {
	in := &instance{id: st.ID, borrowed: borrowed, db: st.DB, version: st.Version, lastSeq: st.LastSeq, bytes: instanceCost(st.DB)}
	in.results = e.newResultCache()
	in.batcher = newIngestBatcher(e, in, e.cfg.IngestBatchSize)
	return in
}

// link makes in its id's resident instance, replacing the id's cold stub
// if there is one. Its bytes and LRU entry are settled before the shard
// publishes it: until then no ingest can reach in, so reading in.bytes
// needs no lock and no ingest delta can be counted ahead of it.
func (e *Engine) link(in *instance) {
	e.residentBytes.Add(in.bytes)
	if e.backend != nil {
		e.tracker.Add(in.id, in.bytes, time.Now())
	}
	sh := e.shardOf(in.id)
	sh.mu.Lock()
	if _, ok := sh.cold[in.id]; ok {
		delete(sh.cold, in.id)
		sh.coldCount.Add(-1)
	}
	sh.instances[in.id] = in
	sh.count.Add(1)
	sh.mu.Unlock()
}

// unlink undoes link for in, whose batcher the caller has closed (so its
// bytes no longer change): in leaves its shard, with stub as the id's cold
// entry when stub is non-nil, and its bytes, LRU entry and cached results
// go with it.
func (e *Engine) unlink(in *instance, stub *InstanceInfo) {
	sh := e.shardOf(in.id)
	sh.mu.Lock()
	delete(sh.instances, in.id)
	sh.count.Add(-1)
	if stub != nil {
		sh.cold[in.id] = *stub
		sh.coldCount.Add(1)
	}
	sh.mu.Unlock()
	in.mu.RLock()
	bytes := in.bytes
	in.mu.RUnlock()
	e.residentBytes.Add(-bytes)
	e.tracker.Remove(in.id)
	in.results.purge()
}

// addCold registers info as a cold stub unless its id is already known.
func (e *Engine) addCold(info InstanceInfo) {
	sh := e.shardOf(info.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.instances[info.ID]; ok {
		return
	}
	if _, ok := sh.cold[info.ID]; !ok {
		sh.cold[info.ID] = info
		sh.coldCount.Add(1)
	}
}

// forgetCold removes id's cold stub.
func (e *Engine) forgetCold(id string) {
	sh := e.shardOf(id)
	sh.mu.Lock()
	delete(sh.cold, id)
	sh.coldCount.Add(-1)
	sh.mu.Unlock()
}

// retire commits rec, the removal of rec.ID, and applies it: the resident
// instance in leaves the registry, for a cold stub when cold is set
// (eviction), or, when in is nil, the id's cold stub goes. A caller
// retiring a resident instance has closed its batcher — the write fence —
// so no write is logged after rec. If rec is not applied, retire reopens
// the batcher and the instance stays as it was.
func (e *Engine) retire(in *instance, rec persist.Record, cold bool) (applied bool, err error) {
	if in == nil {
		return e.commit(rec, func(uint64) { e.forgetCold(rec.ID) })
	}
	var stub *InstanceInfo
	if cold {
		info := e.describe(in)
		info.State = "cold"
		stub = &info
	}
	applied, err = e.commit(rec, func(uint64) { e.unlink(in, stub) })
	if !applied {
		in.batcher.reopen()
	}
	return applied, err
}

// state captures in's database (shared, not copied), generation and WAL
// position.
func (in *instance) state() persist.InstanceState {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return persist.InstanceState{ID: in.id, DB: in.db, Version: in.version, LastSeq: in.lastSeq}
}

// toBlob writes st as its instance's cold blob.
func (e *Engine) toBlob(ctx context.Context, st persist.InstanceState) error {
	blob, err := persist.EncodeInstanceBlob(st)
	if err != nil {
		return err
	}
	return e.backend.Put(ctx, st.ID, blob)
}

// loadBlob reads and decodes id's cold blob and checks that it carries id.
// A missing blob's error wraps fs.ErrNotExist.
func (e *Engine) loadBlob(ctx context.Context, id string) (persist.InstanceState, error) {
	raw, err := e.backend.Get(ctx, id)
	if err != nil {
		return persist.InstanceState{}, err
	}
	st, err := persist.DecodeInstanceBlob(raw)
	if err == nil && st.ID != id {
		err = fmt.Errorf("blob carries instance id %q", st.ID)
	}
	return st, err
}

// raiseNextID lifts the generated-id counter to at least n, so a
// generated "i<n>" never names an instance that already exists.
func (e *Engine) raiseNextID(n uint64) {
	for {
		cur := e.nextID.Load()
		if n <= cur || e.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}
