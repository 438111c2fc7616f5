package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"provmin/internal/db"
	"provmin/internal/store"
)

// snapshotFormat identifies provmind snapshot files; the header version is
// store.FormatVersion because the per-instance lines are store Envelopes.
const snapshotFormat = "provmind-snapshot"

// snapshotHeader is the first JSON line of a shard snapshot file.
type snapshotHeader struct {
	Format    string `json:"format"`
	Version   int    `json:"version"`
	Shard     int    `json:"shard"`
	Seq       uint64 `json:"seq"`     // global sequence at capture (informational)
	NextID    uint64 `json:"next_id"` // instance-id counter floor at capture
	Instances int    `json:"instances"`
}

// InstanceState is one instance's database plus the generation and WAL
// position the database reflects: a snapshot line, a cold blob, or an
// instance recovered at Open. A state captured for a snapshot or a blob
// holds a deep copy (or otherwise immutable view) of the database.
type InstanceState struct {
	ID      string
	DB      *db.Instance
	Version uint64 // engine instance generation: one increment per ingest batch
	LastSeq uint64 // last WAL sequence applied to DB
}

// EncodeInstanceBlob renders one instance as a standalone cold-snapshot
// blob: a store Envelope v2, the same per-instance representation shard
// snapshot lines use, so the cold tier introduces no new serialization
// format and blobs stay byte-compatible with what replay already decodes.
func EncodeInstanceBlob(st InstanceState) ([]byte, error) {
	if st.ID == "" {
		return nil, errors.New("persist: cold blob needs an instance id")
	}
	env := store.NewEnvelope(st.DB, nil, nil)
	env.Version = store.FormatVersion
	env.Instance = st.ID
	env.InstanceVersion = st.Version
	env.LastSeq = st.LastSeq
	env.Symbols = st.DB.Symbols().Symbols()
	return json.Marshal(env)
}

// DecodeInstanceBlob parses a cold-snapshot blob back into instance state.
func DecodeInstanceBlob(raw []byte) (InstanceState, error) {
	var env store.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return InstanceState{}, fmt.Errorf("persist: cold blob: %w", err)
	}
	if err := env.CheckVersion(store.FormatVersion); err != nil {
		return InstanceState{}, fmt.Errorf("persist: cold blob: %w", err)
	}
	if env.Instance == "" {
		return InstanceState{}, errors.New("persist: cold blob without instance id")
	}
	d, _, _, err := env.Decode()
	if err != nil {
		return InstanceState{}, fmt.Errorf("persist: cold blob %s: %w", env.Instance, err)
	}
	return InstanceState{ID: env.Instance, DB: d, Version: env.InstanceVersion, LastSeq: env.LastSeq}, nil
}

// SnapshotStats summarizes one Snapshot/Compact run.
type SnapshotStats struct {
	Shards    int           `json:"shards"`
	Instances int           `json:"instances"`
	Bytes     int64         `json:"bytes"`
	Compacted bool          `json:"compacted"`
	Duration  time.Duration `json:"duration_ns"`
}

// Snapshot writes every shard's instances to its snapshot file, capturing
// each shard's state via the callback while that shard's WAL is quiescent
// (its mutex held). With compact=true the shard's WAL is reset afterwards:
// every record in it was applied before capture — Commit applies under the
// same mutex — so the snapshot fully covers the discarded log.
//
// The callback runs with the shard WAL lock held and may take engine
// registry and instance locks (in that order), never the reverse.
func (l *Log) Snapshot(capture func(shard int) []InstanceState, compact bool) (SnapshotStats, error) {
	// One snapshot/compact at a time: a plain snapshot writes shard files
	// outside the WAL mutex, and two interleaved writers could replace a
	// compaction's fresh snapshot with older state after the WAL was
	// already truncated.
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	start := time.Now()
	stats := SnapshotStats{Shards: len(l.shards), Compacted: compact}
	for k, w := range l.shards {
		w.mu.Lock()
		for w.syncing {
			w.cond.Wait()
		}
		if w.f == nil {
			w.mu.Unlock()
			return stats, errors.New("persist: log closed")
		}
		states := capture(k)
		if !compact {
			// The captured states are immutable deep copies: commits may
			// resume on this shard while the (slow) encode+write runs.
			// Only compaction must keep the WAL quiescent through the
			// file write, because it discards the log afterwards.
			w.mu.Unlock()
		}
		n, err := l.writeShardSnapshot(k, states)
		if compact {
			if err == nil {
				err = w.resetLocked()
			}
			w.mu.Unlock()
		}
		if err != nil {
			return stats, err
		}
		stats.Instances += len(states)
		stats.Bytes += n
	}
	stats.Duration = time.Since(start)
	l.reg.Counter("persist_snapshots_total").Inc()
	l.reg.Counter("persist_snapshot_bytes_total").Add(stats.Bytes)
	if compact {
		l.reg.Counter("persist_compactions_total").Inc()
	}
	l.reg.Histogram("persist_snapshot_seconds").Observe(stats.Duration)
	return stats, nil
}

// writeShardSnapshot renders one shard file (header line + one compact
// Envelope line per instance) and installs it atomically.
func (l *Log) writeShardSnapshot(k int, states []InstanceState) (int64, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	hdr := snapshotHeader{
		Format:    snapshotFormat,
		Version:   store.FormatVersion,
		Shard:     k,
		Seq:       l.seq.Load(),
		NextID:    l.nextID.Load(),
		Instances: len(states),
	}
	if err := enc.Encode(hdr); err != nil {
		return 0, err
	}
	for _, st := range states {
		env := store.NewEnvelope(st.DB, nil, nil)
		env.Version = store.FormatVersion // v3 fields below
		env.Instance = st.ID
		env.InstanceVersion = st.Version
		env.LastSeq = st.LastSeq
		env.Symbols = st.DB.Symbols().Symbols()
		if err := enc.Encode(env); err != nil {
			return 0, err
		}
	}
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("shard-%d.snap", k))
	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		return 0, fmt.Errorf("persist: write snapshot %s: %w", path, err)
	}
	return int64(buf.Len()), nil
}

// resetLocked discards the shard's WAL file content (caller holds w.mu and
// has ensured no fsync is in flight). The buffer is deliberately NOT
// flushed first: every record it could hold is covered by the snapshot
// just written, and skipping the flush clears bufio's sticky error — so a
// shard wounded by a transient write failure is healed by compaction
// instead of staying broken until process restart.
func (w *walShard) resetLocked() error {
	// Best-effort close: the file's content is being discarded, and a
	// wounded fd (the very thing compaction may be healing) can fail here.
	_ = w.f.Close()
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.bw.Reset(f)
	w.synced = w.dirty
	w.syncErr = nil
	return nil
}

// rewriteAll re-lays the directory under the configured stripe count from
// the recovered state: fresh snapshots for every new stripe, then every
// old WAL and out-of-range snapshot file is removed. Runs at Open, before
// the WAL files are opened for appending. Crash-safe: new snapshots carry
// the highest LastSeq per instance, so a partial rewrite still recovers
// (old WAL records are skipped as already covered).
func (l *Log) rewriteAll() error {
	byShard := make([][]InstanceState, len(l.shards))
	for _, in := range l.recovered {
		k := ShardFor(in.ID, len(l.shards))
		byShard[k] = append(byShard[k], in)
	}
	for k := range l.shards {
		if _, err := l.writeShardSnapshot(k, byShard[k]); err != nil {
			return err
		}
	}
	wals, _ := filepath.Glob(filepath.Join(l.opts.Dir, "wal-*.log"))
	for _, path := range wals {
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(l.opts.Dir, "shard-*.snap"))
	for _, path := range snaps {
		if stripeIndex(path) >= len(l.shards) {
			if err := os.Remove(path); err != nil {
				return err
			}
		}
	}
	return syncDir(l.opts.Dir)
}
