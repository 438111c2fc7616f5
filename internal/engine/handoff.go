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
// Each of these is a registry transition (registry.go), serialized with
// every other transition of the same id.
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
	return e.transition(id, func(in *instance, cold bool) error {
		if cold || (in != nil && !in.borrowed) {
			return nil
		}
		if in != nil {
			e.discardBorrowed(in)
		}
		st, err := e.loadBlob(ctx, id)
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w %q (no cold blob to adopt)", ErrUnknownInstance, id)
		}
		if err != nil {
			return fmt.Errorf("adopt %s: %w", id, err)
		}
		// Rebase the blob into this node's WAL sequence space: a foreign
		// LastSeq replayed locally would make recovery skip local ingest
		// records. Rewriting before registering keeps the invariant that
		// every cold blob in the registry is replayable against the local
		// log.
		if st.LastSeq != 0 {
			st.LastSeq = 0
			if err := e.toBlob(ctx, st); err != nil {
				return fmt.Errorf("adopt %s: %w", id, err)
			}
		}
		e.addCold(InstanceInfo{ID: id, Relations: len(st.DB.Relations()), Tuples: st.DB.NumTuples(), Version: st.Version, State: "cold"})
		// Generated ids must never collide with an adopted one.
		e.raiseNextID(numericInstanceID(id))
		e.met.adopts.Inc()
		return nil
	})
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
	return e.transition(id, func(in *instance, cold bool) error {
		switch {
		case in == nil && !cold:
			return fmt.Errorf("%w %q", ErrUnknownInstance, id)
		case in != nil && in.borrowed:
			e.discardBorrowed(in)
			return nil
		case in != nil:
			// Same write fence as eviction: after close returns, nothing
			// mutates the database, so the blob is the instance's final
			// state. A cold instance's blob is current by construction:
			// eviction wrote it and cold state never mutates.
			in.batcher.close()
			if err := e.toBlob(ctx, in.state()); err != nil {
				in.batcher.reopen()
				return fmt.Errorf("release %s: %w", id, err)
			}
		}
		// If the record is applied but its sync fails, the blob is durable:
		// should the record be lost, replay resurrects the instance locally
		// — both nodes may own it until the next rebalance, never neither.
		applied, err := e.retire(in, persist.Record{Op: persist.OpRelease, ID: id}, false)
		if applied {
			e.met.releases.Inc()
		}
		return err
	})
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
	return e.transition(id, func(in *instance, cold bool) error {
		if in != nil || cold {
			return nil // lookup's retry will find (or fault in) the local entry
		}
		start := time.Now()
		st, err := e.loadBlob(context.Background(), id)
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w %q", ErrUnknownInstance, id)
		}
		if err != nil {
			return fmt.Errorf("borrow %s: %w", id, err)
		}
		e.link(e.newInstance(st, true))
		e.met.borrows.Inc()
		e.met.borrow.Observe(time.Since(start))
		return nil
	})
}

// discardBorrowed drops a borrowed copy from RAM: no WAL record (it was
// never in the local history) and no blob GC (the blob is the owner's).
// The caller runs inside a transition of the copy's id.
func (e *Engine) discardBorrowed(in *instance) {
	in.batcher.close()
	e.unlink(in, nil)
	e.met.borrowDiscards.Inc()
}
