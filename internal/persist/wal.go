// Package persist is the durability layer of the provmind service: an
// append-only write-ahead log of instance operations, sharded the same way
// as the engine's registry, plus periodic compacted snapshots in the
// internal/store Envelope format (version 2).
//
// The paper's workflow (§1, §5) is explicitly offline — annotated results
// are stored and core provenance is recovered later from the stored
// polynomial — so the service must survive restarts. The contract is:
//
//   - every acknowledged mutation was logged (and, in SyncAlways mode,
//     fsynced) before the acknowledgment;
//   - on boot, replaying snapshot + WAL suffix reproduces every
//     acknowledged mutation exactly, including instance version counters;
//   - a torn or corrupt WAL tail (the crash case) is detected by a CRC on
//     every record and truncated, never silently skipped over.
//
// Lock ordering: a shard's WAL mutex is always taken before any engine
// registry or instance lock (Commit holds it across append+apply; Snapshot
// holds it across capture+write), so commits, snapshots and compactions
// never deadlock and compaction can never drop a record that is not yet
// covered by a snapshot.
package persist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"provmin/internal/metrics"
)

// Fact is one annotated tuple in a WAL record: relation name, provenance
// tag and the tuple's values. The engine's ingest Fact is an alias of this
// type, so facts flow into the log without conversion.
type Fact struct {
	Rel    string   `json:"rel"`
	Tag    string   `json:"tag"`
	Values []string `json:"values"`
}

// Op names one kind of WAL record. Every declared Op constant must be
// handled (or explicitly defaulted) by every switch over the type — a new
// op silently skipped in replay is data loss. The directive below makes
// provlint's walexhaustive analyzer enforce that invariant statically.
//
//provlint:exhaustive
type Op string

// Ops recorded in the WAL.
const (
	OpCreate Op = "create" // new instance (Initial carries seed facts as db text)
	OpIngest Op = "ingest" // one applied ingest batch (Facts)
	OpDrop   Op = "drop"   // instance removed

	// Tiering ops. OpEvict records that the instance's state up to this
	// point lives in a cold-store blob and the in-memory copy was released;
	// OpFaultIn records that the blob was loaded back and subsequent ingest
	// records apply on top of it. Replay uses them to leave finally-cold
	// instances out of RAM and to know where a blob re-enters the history.
	OpEvict   Op = "evict"
	OpFaultIn Op = "faultin"

	// OpRelease records a cluster rebalance handoff: the instance's state
	// was snapshotted into its cold blob and this node forgot it, but —
	// unlike OpDrop — the instance still exists, owned by another node.
	// Replay forgets it without marking it dropped, so this node's boot GC
	// never deletes the new owner's blob from a shared backend.
	OpRelease Op = "release"
)

// Record is one WAL entry. Records are JSON-encoded one per line, each
// line framed with a CRC32 of the JSON payload.
type Record struct {
	Seq     uint64 `json:"seq"`
	Op      Op     `json:"op"`
	ID      string `json:"id"`
	Initial string `json:"initial,omitempty"`
	Facts   []Fact `json:"facts,omitempty"`
	// Gen is the instance generation this ingest record produces — the
	// engine's monotonic per-instance counter that stamps result-cache
	// entries. Carrying it explicitly (rather than recounting records at
	// replay) pins recovered generations to the acknowledged ones even if
	// a record is ever skipped. Zero on pre-generation records and on
	// create/drop; replay then falls back to incrementing.
	Gen uint64 `json:"gen,omitempty"`
}

// SyncMode controls when WAL appends reach stable storage.
type SyncMode string

const (
	// SyncAlways fsyncs before a commit is acknowledged. Concurrent
	// commits on one shard share fsyncs (group commit), so the fsync rate
	// stays far below the commit rate under load.
	SyncAlways SyncMode = "always"
	// SyncInterval fsyncs dirty shards on a background ticker; commits do
	// not wait. A crash may lose the last interval of acknowledged writes.
	SyncInterval SyncMode = "interval"
	// SyncNone never fsyncs outside snapshots and Close; the OS decides.
	SyncNone SyncMode = "none"
)

// ParseSyncMode validates a -wal-sync flag value.
func ParseSyncMode(s string) (SyncMode, error) {
	switch SyncMode(s) {
	case SyncAlways, SyncInterval, SyncNone:
		return SyncMode(s), nil
	}
	return "", fmt.Errorf("persist: unknown sync mode %q (want %q, %q or %q)", s, SyncAlways, SyncInterval, SyncNone)
}

// Options configures Open.
type Options struct {
	// Dir is the data directory; created if absent.
	Dir string
	// Shards is the WAL/snapshot stripe count (default 8). It should match
	// the engine's registry shard count; when it differs from the on-disk
	// layout, Open reshards by snapshotting into the new layout.
	Shards int
	// Sync selects the durability mode (default SyncAlways).
	Sync SyncMode
	// SyncInterval is the ticker period for SyncInterval (default 100ms).
	SyncInterval time.Duration
	// Metrics receives WAL/snapshot counters and gauges; a private
	// registry is created when nil.
	Metrics *metrics.Registry
	// Cold reads per-instance cold-snapshot blobs during replay: an
	// OpFaultIn record re-enters the blob's state into the history, so a
	// WAL that contains fault-ins cannot replay without the store that
	// holds the blobs. tier.SnapshotBackend satisfies this interface. May
	// be nil when tiering was never enabled.
	Cold ColdStore
}

// ColdStore is the read side of a cold-snapshot store, the piece replay
// needs. A missing blob must yield an error satisfying
// errors.Is(err, fs.ErrNotExist).
type ColdStore interface {
	Get(ctx context.Context, id string) ([]byte, error)
}

// Log is an open durability layer: per-shard WAL appenders plus the state
// recovered from disk at Open time.
type Log struct {
	opts   Options
	reg    *metrics.Registry
	shards []*walShard
	seq    atomic.Uint64 // last assigned sequence number, global
	nextID atomic.Uint64 // high-water instance-id counter (recovered + runtime creates)

	recovered []InstanceState
	dropped   []string // ids whose final replayed op was OpDrop, for blob GC
	seqFloor  uint64   // snapshot-header seq floor seen during replay

	snapMu    sync.Mutex   // serializes Snapshot/Compact runs
	failWrite atomic.Value // error; non-nil fails appends (chaos/test hook)

	closeOnce sync.Once
	stop      chan struct{}
	tickDone  chan struct{}
}

// walShard is one WAL stripe: an append-only file plus group-commit state.
type walShard struct {
	mu      sync.Mutex
	cond    *sync.Cond // signals fsync completion; waits under mu
	f       *os.File
	bw      *bufio.Writer
	path    string
	dirty   uint64 // last seq written to the buffer
	synced  uint64 // last seq known fsynced
	syncing bool
	syncErr error
}

// ShardFor maps an instance id onto one of n stripes with FNV-1a — the
// same mapping the engine registry uses, so one shard's WAL covers exactly
// one registry stripe.
func ShardFor(id string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

// Open recovers state from dir (snapshots, then WAL suffixes) and opens
// the WAL stripes for appending. A torn tail is truncated; a shard-count
// change reshards the directory before returning.
func Open(opts Options) (*Log, error) {
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	if opts.Sync == "" {
		opts.Sync = SyncAlways
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 100 * time.Millisecond
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	if opts.Dir == "" {
		return nil, errors.New("persist: empty data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create data dir: %w", err)
	}

	l := &Log{opts: opts, reg: opts.Metrics, stop: make(chan struct{}), tickDone: make(chan struct{})}

	reshard, err := l.replay()
	if err != nil {
		return nil, err
	}

	l.shards = make([]*walShard, opts.Shards)
	for k := range l.shards {
		w := &walShard{path: filepath.Join(opts.Dir, fmt.Sprintf("wal-%d.log", k))}
		w.cond = sync.NewCond(&w.mu)
		l.shards[k] = w
	}

	if reshard {
		// Layout changed (or old files carry another stripe count): write
		// every recovered instance into a fresh snapshot under the new
		// layout and start the WALs empty.
		if err := l.rewriteAll(); err != nil {
			return nil, err
		}
	}
	for _, w := range l.shards {
		if err := w.open(); err != nil {
			return nil, err
		}
	}
	if err := l.writeMeta(); err != nil {
		return nil, err
	}

	if opts.Sync == SyncInterval {
		go l.syncLoop()
	} else {
		close(l.tickDone)
	}
	return l, nil
}

func (w *walShard) open() error {
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: open wal: %w", err)
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 64<<10)
	return nil
}

// Shards returns the stripe count.
func (l *Log) Shards() int { return len(l.shards) }

// Dir returns the data directory.
func (l *Log) Dir() string { return l.opts.Dir }

// NextID returns the recovered instance-id counter: the engine must hand
// out ids strictly above it so recycled ids never collide after replay.
func (l *Log) NextID() uint64 { return l.nextID.Load() }

// bumpNextID raises the instance-id high-water mark to at least n.
func (l *Log) bumpNextID(n uint64) {
	for {
		cur := l.nextID.Load()
		if n <= cur || l.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Recovered returns the instances reconstructed at Open, sorted by id —
// for inspection and logging. The engine adopts them via TakeRecovered.
func (l *Log) Recovered() []InstanceState { return l.recovered }

// TakeRecovered returns the recovered instances and releases the log's
// references to them, so adopted databases can be garbage-collected once
// the engine drops them.
func (l *Log) TakeRecovered() []InstanceState {
	r := l.recovered
	l.recovered = nil
	return r
}

// DroppedIDs returns the instance ids whose final replayed operation was a
// drop, sorted ascending. The engine's cold-adoption pass uses them to
// garbage-collect blobs whose live deletion was lost to a crash.
func (l *Log) DroppedIDs() []string { return l.dropped }

// InjectWriteError makes every subsequent append fail with err until
// called with nil — a chaos/test hook simulating a dying disk: commits
// fail before the in-memory state mutates, so acknowledged state and
// recovered state stay identical.
func (l *Log) InjectWriteError(err error) {
	l.failWrite.Store(&err)
}

func (l *Log) writeErr() error {
	if p, _ := l.failWrite.Load().(*error); p != nil {
		return *p
	}
	return nil
}

// Commit assigns rec the next global sequence number, appends it to the
// owning shard's WAL and — while still holding the shard lock — runs apply
// with the assigned seq. Append errors fail the commit without running
// apply, so memory never runs ahead of a WAL that will not replay. In
// SyncAlways mode Commit returns only after the record is fsynced (sharing
// fsyncs with concurrent committers).
func (l *Log) Commit(rec Record, apply func(seq uint64)) (uint64, error) {
	w := l.shards[ShardFor(rec.ID, len(l.shards))]
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return 0, errors.New("persist: log closed")
	}
	if err := l.writeErr(); err != nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("persist: wal append: %w", err)
	}
	rec.Seq = l.seq.Add(1)
	if rec.Op == OpCreate {
		l.bumpNextID(maxInstanceID(0, rec.ID))
	}
	n, err := appendRecord(w.bw, &rec)
	if err != nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("persist: wal append: %w", err)
	}
	w.dirty = rec.Seq
	if apply != nil {
		apply(rec.Seq)
	}
	w.mu.Unlock()

	l.reg.Counter("persist_wal_records_total").Inc()
	l.reg.Counter("persist_wal_bytes_total").Add(int64(n))

	if l.opts.Sync == SyncAlways {
		if err := l.syncShard(w, rec.Seq); err != nil {
			return rec.Seq, err
		}
	}
	return rec.Seq, nil
}

// appendRecord writes one CRC-framed record line; returns bytes written.
func appendRecord(bw *bufio.Writer, rec *Record) (int, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	return bw.WriteString(line)
}

// syncShard blocks until every record up to seq is fsynced, coalescing
// with concurrent waiters: the caller that finds no fsync in flight
// becomes the leader, flushes the buffer and fsyncs once for everyone who
// queued behind it.
func (l *Log) syncShard(w *walShard, seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.synced >= seq {
			return nil
		}
		if w.f == nil {
			return errors.New("persist: log closed")
		}
		if w.syncing {
			w.cond.Wait()
			if w.syncErr != nil && w.synced < seq {
				return w.syncErr
			}
			continue
		}
		w.syncing = true
		target := w.dirty
		err := w.bw.Flush()
		f := w.f
		w.mu.Unlock()
		if err == nil {
			err = f.Sync()
			l.reg.Counter("persist_wal_fsyncs_total").Inc()
		}
		if err != nil {
			// Surface failures even when no committer is waiting (the
			// SyncInterval ticker discards the return value): without this
			// counter a dying disk under -wal-sync interval is invisible.
			l.reg.Counter("persist_wal_fsync_errors_total").Inc()
		}
		w.mu.Lock()
		w.syncing = false
		w.syncErr = err
		if err == nil && target > w.synced {
			w.synced = target
		}
		w.cond.Broadcast()
		if err != nil {
			return err
		}
	}
}

// syncLoop is the SyncInterval ticker: flush+fsync any dirty shard.
func (l *Log) syncLoop() {
	defer close(l.tickDone)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			for _, w := range l.shards {
				w.mu.Lock()
				dirty, synced, open := w.dirty, w.synced, w.f != nil
				w.mu.Unlock()
				if open && dirty > synced {
					_ = l.syncShard(w, dirty)
				}
			}
		}
	}
}

// Sync flushes and fsyncs every shard.
func (l *Log) Sync() error {
	var first error
	for _, w := range l.shards {
		w.mu.Lock()
		dirty, open := w.dirty, w.f != nil
		w.mu.Unlock()
		if !open {
			continue
		}
		if err := l.syncShard(w, dirty); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close syncs and closes every shard file. Further commits fail.
func (l *Log) Close() error {
	var first error
	l.closeOnce.Do(func() {
		close(l.stop)
		<-l.tickDone
		first = l.Sync()
		for _, w := range l.shards {
			w.mu.Lock()
			for w.syncing {
				w.cond.Wait()
			}
			if w.f != nil {
				if err := w.f.Close(); err != nil && first == nil {
					first = err
				}
				w.f = nil
			}
			w.cond.Broadcast()
			w.mu.Unlock()
		}
	})
	return first
}

// meta.json records the stripe layout so Open can detect reshards.
type metaFile struct {
	Format int `json:"format"`
	Shards int `json:"shards"`
}

func (l *Log) metaPath() string { return filepath.Join(l.opts.Dir, "meta.json") }

func (l *Log) writeMeta() error {
	raw, _ := json.Marshal(metaFile{Format: 1, Shards: len(l.shards)})
	return writeFileAtomic(l.metaPath(), raw)
}

// writeFileAtomic writes via tmp+rename and fsyncs file and directory, so
// a crash leaves either the old or the new content, never a torn file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// parseRecords scans CRC-framed record lines from raw, returning the
// records up to the first torn or corrupt line and the byte offset where
// the clean prefix ends.
func parseRecords(raw []byte) (recs []Record, clean int) {
	off := 0
	for off < len(raw) {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // torn tail: no newline
		}
		line := raw[off : off+nl]
		if len(line) < 10 || line[8] != ' ' {
			break
		}
		var crc uint32
		if _, err := fmt.Sscanf(string(line[:8]), "%08x", &crc); err != nil {
			break
		}
		payload := line[9:]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		recs = append(recs, rec)
		off += nl + 1
		clean = off
	}
	return recs, clean
}
