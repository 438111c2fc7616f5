package persist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	"provmin/internal/db"
	"provmin/internal/store"
)

var instanceIDPat = regexp.MustCompile(`^i(\d+)$`)

// replay loads every snapshot and WAL file in the directory — regardless
// of the configured stripe count, so reshards recover cleanly — and
// rebuilds the instance set. It reports whether the on-disk layout must be
// rewritten (stripe count changed).
func (l *Log) replay() (reshard bool, err error) {
	start := time.Now()
	insts := map[string]*InstanceState{}

	snaps, err := filepath.Glob(filepath.Join(l.opts.Dir, "shard-*.snap"))
	if err != nil {
		return false, err
	}
	sort.Strings(snaps)
	for _, path := range snaps {
		if err := l.loadSnapshot(path, insts); err != nil {
			return false, err
		}
	}

	wals, err := filepath.Glob(filepath.Join(l.opts.Dir, "wal-*.log"))
	if err != nil {
		return false, err
	}
	sort.Strings(wals)
	var recs []Record
	for _, path := range wals {
		raw, err := os.ReadFile(path)
		if err != nil {
			return false, fmt.Errorf("persist: read wal %s: %w", path, err)
		}
		fileRecs, clean := parseRecords(raw)
		if clean < len(raw) {
			// Torn or corrupt tail — the crash case. Truncate so future
			// appends start at the last durable record, never after junk
			// that replay would stop at.
			l.reg.Counter("persist_wal_truncated_tails_total").Inc()
			if err := os.Truncate(path, int64(clean)); err != nil {
				return false, fmt.Errorf("persist: truncate torn wal tail %s: %w", path, err)
			}
		}
		recs = append(recs, fileRecs...)
	}
	// One global sequence orders records across stripes; per-instance
	// records always live in a single stripe, so this sort preserves each
	// instance's op order while making cross-stripe replay deterministic.
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })

	// Residency pre-pass: an instance whose *final* op is an evict lives in
	// a cold blob and must not be replayed into RAM at all — booting a host
	// with a large cold population would otherwise materialize every cold
	// instance transiently and defeat the tier. Dropped instances likewise
	// skip application, and their ids are kept for blob GC.
	final := map[string]Op{}
	for i := range recs {
		final[recs[i].ID] = recs[i].Op
	}
	l.dropped = nil
	var coldCount, releasedCount int64
	for id, op := range final {
		switch op {
		case OpEvict:
			coldCount++
			delete(insts, id) // an older shard snapshot may still carry it
		case OpDrop:
			l.dropped = append(l.dropped, id)
			delete(insts, id)
		case OpRelease:
			// Handed off to another node: forget it here, but never list it
			// as dropped — its blob now belongs to the new owner.
			releasedCount++
			delete(insts, id)
		case OpCreate, OpIngest, OpFaultIn:
			// A final create/ingest/fault-in means the instance ends the
			// history resident: nothing to pre-empt here; the apply pass
			// below builds it.
		default:
			// Unknown final op: treat the instance as resident so the apply
			// pass below surfaces the record through its own default arm
			// instead of this pre-pass silently deciding residency for an op
			// it does not understand.
		}
	}
	sort.Strings(l.dropped)

	var maxID uint64
	maxSeq := l.seqFloor
	for _, in := range insts {
		if in.LastSeq > maxSeq {
			maxSeq = in.LastSeq
		}
		maxID = maxInstanceID(maxID, in.ID)
	}
	for i := range recs {
		rec := &recs[i]
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		maxID = maxInstanceID(maxID, rec.ID)
		switch final[rec.ID] {
		case OpEvict, OpDrop, OpRelease:
			// Finally cold or dropped: the record's effect is fully covered
			// by the blob (or moot); never build the instance in RAM.
			l.reg.Counter("persist_replay_residency_skips_total").Inc()
			continue
		case OpCreate, OpIngest, OpFaultIn:
			// Ends resident: apply below.
		default:
			// Unknown final op: fall through to the apply pass, whose default
			// arm reports the record itself.
		}
		var err error
		if rec.Op == OpFaultIn {
			err = l.applyFaultIn(rec, insts)
		} else {
			err = applyRecord(rec, insts)
		}
		if err != nil {
			if errors.Is(err, errReplayFatal) {
				return false, err
			}
			// A logged record that fails to apply means the validate-
			// before-log invariant was violated on a previous run; count
			// it and keep the instance at its pre-record state rather than
			// refusing to boot.
			l.reg.Counter("persist_replay_skipped_total").Inc()
			continue
		}
		l.reg.Counter("persist_replay_records_total").Inc()
	}

	l.seq.Store(maxSeq)
	l.bumpNextID(maxID)
	l.recovered = make([]InstanceState, 0, len(insts))
	for _, in := range insts {
		l.recovered = append(l.recovered, *in)
	}
	sort.Slice(l.recovered, func(i, j int) bool { return l.recovered[i].ID < l.recovered[j].ID })

	l.reg.Gauge("persist_recovered_instances").Set(int64(len(l.recovered)))
	l.reg.Gauge("persist_replay_cold_instances").Set(coldCount)
	l.reg.Gauge("persist_replay_released_instances").Set(releasedCount)
	l.reg.Gauge("persist_replay_duration_ms").Set(time.Since(start).Milliseconds())

	return l.layoutMismatch(snaps, wals), nil
}

// applyRecord folds one WAL record into the recovered instance set. A
// record whose seq is not above the instance's LastSeq is already covered
// by a snapshot and skipped — replay is idempotent.
func applyRecord(rec *Record, insts map[string]*InstanceState) error {
	switch rec.Op {
	case OpCreate:
		if in, ok := insts[rec.ID]; ok && in.LastSeq >= rec.Seq {
			return nil
		}
		d := db.NewInstance()
		if rec.Initial != "" {
			parsed, err := db.ParseInstance(rec.Initial)
			if err != nil {
				return fmt.Errorf("replay create %s: %w", rec.ID, err)
			}
			d = parsed
		}
		insts[rec.ID] = &InstanceState{ID: rec.ID, DB: d, LastSeq: rec.Seq}
	case OpIngest:
		in, ok := insts[rec.ID]
		if !ok || in.LastSeq >= rec.Seq {
			return nil
		}
		for _, f := range rec.Facts {
			if err := ApplyFact(in.DB, f); err != nil {
				return fmt.Errorf("replay ingest %s: %w", rec.ID, err)
			}
		}
		if rec.Gen > 0 {
			in.Version = rec.Gen
		} else {
			in.Version++ // pre-generation record: derive by counting
		}
		in.LastSeq = rec.Seq
	case OpDrop:
		if in, ok := insts[rec.ID]; ok && in.LastSeq < rec.Seq {
			delete(insts, rec.ID)
		}
	case OpEvict, OpRelease:
		// An intermediate evict (a later fault-in follows, or the instance
		// ends resident) just releases the RAM copy; the following fault-in
		// record reloads the blob. An intermediate release behaves the same
		// way: the instance was handed off and later adopted back, and the
		// adopt-side fault-in record reloads the (rewritten) blob.
		if in, ok := insts[rec.ID]; ok && in.LastSeq < rec.Seq {
			delete(insts, rec.ID)
		}
	default:
		return fmt.Errorf("replay: unknown op %q", rec.Op)
	}
	return nil
}

// errReplayFatal marks replay errors that must fail Open instead of being
// skipped: misconfiguration or an unreachable cold store, where booting
// with silently missing instances would be worse than not booting.
var errReplayFatal = errors.New("persist: fatal replay error")

// applyFaultIn replays one OpFaultIn record: the cold blob re-enters the
// history here, and ingest records after this point apply on top of it.
// The blob may be newer than this record (a later evict overwrote it); its
// LastSeq then skips the intermediate records it already covers, which is
// exactly the snapshot idempotency rule.
func (l *Log) applyFaultIn(rec *Record, insts map[string]*InstanceState) error {
	if in, ok := insts[rec.ID]; ok && in.LastSeq >= rec.Seq {
		return nil
	}
	if l.opts.Cold == nil {
		return fmt.Errorf("%w: WAL has a fault-in record for %s but no cold snapshot store is configured (-snapshot-backend)", errReplayFatal, rec.ID)
	}
	raw, err := l.opts.Cold.Get(context.Background(), rec.ID)
	if errors.Is(err, fs.ErrNotExist) {
		// The blob is gone (lost store, or the instance was later dropped
		// and its blob deleted). Skip: a following drop makes this moot; no
		// following drop means the instance is lost and counted.
		return fmt.Errorf("replay faultin %s: %w", rec.ID, err)
	}
	if err != nil {
		return fmt.Errorf("%w: cold store get %s: %v", errReplayFatal, rec.ID, err)
	}
	st, err := DecodeInstanceBlob(raw)
	if err != nil {
		return fmt.Errorf("replay faultin %s: %w", rec.ID, err)
	}
	lastSeq := st.LastSeq
	if rec.Seq > lastSeq {
		lastSeq = rec.Seq
	}
	insts[rec.ID] = &InstanceState{ID: rec.ID, DB: st.DB, Version: st.Version, LastSeq: lastSeq}
	return nil
}

// ApplyFact inserts one fact, creating its relation on first use. It is
// the single application path shared by live ingest (the engine batcher)
// and WAL replay, so recovered relations are guaranteed to match the
// acknowledged ones, creation order included.
func ApplyFact(d *db.Instance, f Fact) error {
	rel, err := d.Relation(f.Rel, len(f.Values))
	if err != nil {
		return err
	}
	return rel.Add(f.Tag, f.Values...)
}

// loadSnapshot folds one shard snapshot file into insts. The file is a
// JSON-lines stream: a header, then one store Envelope (v2) per instance.
func (l *Log) loadSnapshot(path string, insts map[string]*InstanceState) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("persist: open snapshot %s: %w", path, err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)

	var hdr snapshotHeader
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("persist: snapshot header %s: %w", path, err)
	}
	if hdr.Format != snapshotFormat {
		return fmt.Errorf("persist: %s is not a provmind snapshot (format %q)", path, hdr.Format)
	}
	if hdr.Version > store.FormatVersion {
		return fmt.Errorf("persist: snapshot %s has format version %d, newer than this reader supports (max %d)", path, hdr.Version, store.FormatVersion)
	}
	l.bumpNextID(hdr.NextID)
	// The header's global seq is a floor for the recovered counter: after a
	// compaction with every instance cold, no envelope or WAL record would
	// otherwise witness the high-water mark, and reissued seqs would
	// collide with the LastSeq stored in cold blobs.
	if hdr.Seq > l.seqFloor {
		l.seqFloor = hdr.Seq
	}
	for {
		var env store.Envelope
		if err := dec.Decode(&env); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return fmt.Errorf("persist: snapshot %s: %w", path, err)
		}
		if err := env.CheckVersion(store.FormatVersion); err != nil {
			return fmt.Errorf("persist: snapshot %s: %w", path, err)
		}
		d, _, _, err := env.Decode()
		if err != nil {
			return fmt.Errorf("persist: snapshot %s instance %s: %w", path, env.Instance, err)
		}
		if env.Instance == "" {
			return fmt.Errorf("persist: snapshot %s: envelope without instance id", path)
		}
		// Later snapshot generations win; WAL records beyond LastSeq are
		// layered on afterwards.
		if prev, ok := insts[env.Instance]; !ok || env.LastSeq >= prev.LastSeq {
			insts[env.Instance] = &InstanceState{
				ID:      env.Instance,
				DB:      d,
				Version: env.InstanceVersion,
				LastSeq: env.LastSeq,
			}
		}
	}
}

// layoutMismatch reports whether the files on disk disagree with the
// configured stripe count (meta.json missing counts as agreement when no
// data files exist yet).
func (l *Log) layoutMismatch(snaps, wals []string) bool {
	raw, err := os.ReadFile(l.metaPath())
	if err == nil {
		var m metaFile
		if json.Unmarshal(raw, &m) == nil && m.Shards == l.opts.Shards {
			return false
		}
		return true
	}
	if len(snaps) == 0 && len(wals) == 0 {
		return false
	}
	// Data files without meta: treat any stripe index outside the new
	// range as a mismatch.
	for _, path := range append(append([]string{}, snaps...), wals...) {
		if stripeIndex(path) >= l.opts.Shards {
			return true
		}
	}
	return false
}

// stripeIndex extracts k from ".../wal-k.log" or ".../shard-k.snap".
func stripeIndex(path string) int {
	base := filepath.Base(path)
	start := -1
	for i, c := range base {
		if c == '-' {
			start = i + 1
			break
		}
	}
	if start < 0 {
		return 0
	}
	end := start
	for end < len(base) && base[end] >= '0' && base[end] <= '9' {
		end++
	}
	n, _ := strconv.Atoi(base[start:end])
	return n
}

func maxInstanceID(cur uint64, id string) uint64 {
	m := instanceIDPat.FindStringSubmatch(id)
	if m == nil {
		return cur
	}
	n, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil || n <= cur {
		return cur
	}
	return n
}
