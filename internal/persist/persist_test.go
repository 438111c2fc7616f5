package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"provmin/internal/db"
)

func openT(t *testing.T, dir string, shards int) *Log {
	t.Helper()
	l, err := Open(Options{Dir: dir, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func commitT(t *testing.T, l *Log, rec Record) uint64 {
	t.Helper()
	seq, err := l.Commit(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func findRecovered(l *Log, id string) *InstanceState {
	for i := range l.recovered {
		if l.recovered[i].ID == id {
			return &l.recovered[i]
		}
	}
	return nil
}

func TestCommitReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 4)
	commitT(t, l, Record{Op: OpCreate, ID: "i1", Initial: "R r1 a b"})
	commitT(t, l, Record{Op: OpIngest, ID: "i1", Facts: []Fact{
		{Rel: "R", Tag: "r2", Values: []string{"b", "c"}},
		{Rel: "S", Tag: "s1", Values: []string{"c"}},
	}})
	commitT(t, l, Record{Op: OpIngest, ID: "i1", Facts: []Fact{{Rel: "R", Tag: "r3", Values: []string{"c", "d"}}}})
	commitT(t, l, Record{Op: OpCreate, ID: "i2"})
	commitT(t, l, Record{Op: OpCreate, ID: "i3"})
	commitT(t, l, Record{Op: OpDrop, ID: "i2"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, 4)
	defer l2.Close()
	if got := len(l2.Recovered()); got != 2 {
		t.Fatalf("recovered %d instances, want 2 (i1, i3)", got)
	}
	i1 := findRecovered(l2, "i1")
	if i1 == nil {
		t.Fatal("i1 not recovered")
	}
	if i1.Version != 2 {
		t.Errorf("i1 version = %d, want 2 (one per ingest batch)", i1.Version)
	}
	if i1.DB.NumTuples() != 4 {
		t.Errorf("i1 tuples = %d, want 4", i1.DB.NumTuples())
	}
	if tag := i1.DB.Lookup("R").TagOf("b", "c"); tag != "r2" {
		t.Errorf("tag of (b,c) = %q, want r2", tag)
	}
	if findRecovered(l2, "i2") != nil {
		t.Error("dropped i2 resurrected by replay")
	}
	if l2.NextID() != 3 {
		t.Errorf("NextID = %d, want 3", l2.NextID())
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 1)
	commitT(t, l, Record{Op: OpCreate, ID: "i1", Initial: "R r1 a b"})
	commitT(t, l, Record{Op: OpIngest, ID: "i1", Facts: []Fact{{Rel: "R", Tag: "r2", Values: []string{"b", "c"}}}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage without a trailing newline.
	path := filepath.Join(dir, "wal-0.log")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":99,"op":"ingest","id":"i1","fa`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	l2 := openT(t, dir, 1)
	defer l2.Close()
	i1 := findRecovered(l2, "i1")
	if i1 == nil || i1.DB.NumTuples() != 2 {
		t.Fatalf("clean prefix lost: %+v", i1)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	if n := l2.reg.Counter("persist_wal_truncated_tails_total").Value(); n != 1 {
		t.Errorf("truncated_tails = %d, want 1", n)
	}
}

func TestCorruptMiddleStopsReplayAtCrc(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 1)
	commitT(t, l, Record{Op: OpCreate, ID: "i1"})
	seq2 := commitT(t, l, Record{Op: OpIngest, ID: "i1", Facts: []Fact{{Rel: "R", Tag: "r1", Values: []string{"a"}}}})
	commitT(t, l, Record{Op: OpIngest, ID: "i1", Facts: []Fact{{Rel: "R", Tag: "r2", Values: []string{"b"}}}})
	l.Close()

	// Flip one byte inside the second record's payload: its CRC fails and
	// replay must stop there, dropping record 3 as well (no skipping).
	path := filepath.Join(dir, "wal-0.log")
	raw, _ := os.ReadFile(path)
	idx := strings.Index(string(raw), `"r1"`)
	raw[idx+1] ^= 0x01
	os.WriteFile(path, raw, 0o644)

	l2 := openT(t, dir, 1)
	defer l2.Close()
	i1 := findRecovered(l2, "i1")
	if i1 == nil {
		t.Fatal("i1 lost")
	}
	if i1.DB.NumTuples() != 0 || i1.LastSeq >= seq2 {
		t.Errorf("replay continued past a bad CRC: tuples=%d lastSeq=%d", i1.DB.NumTuples(), i1.LastSeq)
	}
}

func TestSnapshotCompactReplay(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 2)
	state := map[string]*InstanceState{}
	apply := func(rec Record) {
		if _, err := l.Commit(rec, nil); err != nil {
			t.Fatal(err)
		}
		m := map[string]*InstanceState{}
		for k, v := range state {
			m[k] = v
		}
		rec.Seq = l.seq.Load()
		if err := applyRecord(&rec, m); err != nil {
			t.Fatal(err)
		}
		state = m
	}
	apply(Record{Op: OpCreate, ID: "i1", Initial: "R r1 a b"})
	apply(Record{Op: OpCreate, ID: "i2"})
	apply(Record{Op: OpIngest, ID: "i1", Facts: []Fact{{Rel: "R", Tag: "r2", Values: []string{"b", "c"}}}})

	capture := func(k int) []InstanceState {
		var out []InstanceState
		for id, in := range state {
			if ShardFor(id, l.Shards()) == k {
				out = append(out, InstanceState{ID: id, DB: in.DB.Clone(), Version: in.Version, LastSeq: in.LastSeq})
			}
		}
		return out
	}
	stats, err := l.Snapshot(capture, true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instances != 2 || stats.Bytes == 0 || !stats.Compacted {
		t.Errorf("stats = %+v", stats)
	}
	for k := 0; k < 2; k++ {
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("wal-%d.log", k)))
		if err != nil || fi.Size() != 0 {
			t.Errorf("wal-%d not reset after compact: %v %d", k, err, fi.Size())
		}
	}

	// Post-compact commits land in the fresh WAL and layer over the snapshot.
	apply(Record{Op: OpIngest, ID: "i2", Facts: []Fact{{Rel: "S", Tag: "s1", Values: []string{"x"}}}})
	l.Close()

	l2 := openT(t, dir, 2)
	defer l2.Close()
	i1, i2 := findRecovered(l2, "i1"), findRecovered(l2, "i2")
	if i1 == nil || i1.DB.NumTuples() != 2 || i1.Version != 1 {
		t.Fatalf("i1 after compact+replay: %+v", i1)
	}
	if i2 == nil || i2.DB.NumTuples() != 1 || i2.Version != 1 {
		t.Fatalf("i2 after compact+replay: %+v", i2)
	}
}

func TestReshardOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 2)
	for i := 1; i <= 6; i++ {
		commitT(t, l, Record{Op: OpCreate, ID: fmt.Sprintf("i%d", i), Initial: "R r a b"})
	}
	l.Close()

	l2 := openT(t, dir, 5)
	defer l2.Close()
	if got := len(l2.Recovered()); got != 6 {
		t.Fatalf("recovered %d instances after reshard, want 6", got)
	}
	// Old stripes beyond the new count are gone; WALs restart empty.
	if _, err := os.Stat(filepath.Join(dir, "wal-0.log")); err != nil {
		t.Error("wal-0.log missing after reshard")
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "shard-*.snap"))
	if len(snaps) != 5 {
		t.Errorf("snapshot stripes = %d, want 5", len(snaps))
	}
	commitT(t, l2, Record{Op: OpIngest, ID: "i3", Facts: []Fact{{Rel: "R", Tag: "r9", Values: []string{"x", "y"}}}})
	l2.Close()

	l3 := openT(t, dir, 5)
	defer l3.Close()
	if in := findRecovered(l3, "i3"); in == nil || in.DB.NumTuples() != 2 {
		t.Fatalf("i3 after reshard+ingest: %+v", in)
	}
}

func TestInjectWriteError(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 1)
	defer l.Close()
	commitT(t, l, Record{Op: OpCreate, ID: "i1"})

	boom := errors.New("disk on fire")
	l.InjectWriteError(boom)
	applied := false
	_, err := l.Commit(Record{Op: OpIngest, ID: "i1", Facts: []Fact{{Rel: "R", Tag: "r", Values: []string{"a"}}}},
		func(uint64) { applied = true })
	if !errors.Is(err, boom) {
		t.Fatalf("Commit error = %v, want injected", err)
	}
	if applied {
		t.Fatal("apply ran despite a failed WAL append — memory would run ahead of disk")
	}
	l.InjectWriteError(nil)
	commitT(t, l, Record{Op: OpIngest, ID: "i1", Facts: []Fact{{Rel: "R", Tag: "r", Values: []string{"a"}}}})
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 2)
	commitT(t, l, Record{Op: OpCreate, ID: "i1"})
	commitT(t, l, Record{Op: OpCreate, ID: "i2"})

	const writers, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("i%d", g%2+1)
			for i := 0; i < per; i++ {
				rec := Record{Op: OpIngest, ID: id, Facts: []Fact{
					{Rel: "R", Tag: fmt.Sprintf("t%d_%d", g, i), Values: []string{fmt.Sprintf("v%d_%d", g, i)}},
				}}
				if _, err := l.Commit(rec, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	records := l.reg.Counter("persist_wal_records_total").Value()
	if want := int64(writers*per + 2); records != want {
		t.Errorf("wal records = %d, want %d", records, want)
	}
	l.Close()

	l2 := openT(t, dir, 2)
	defer l2.Close()
	total := 0
	for _, in := range l2.Recovered() {
		total += in.DB.NumTuples()
	}
	if total != writers*per {
		t.Errorf("recovered %d facts, want %d", total, writers*per)
	}
}

// TestCompactHealsWoundedShard: a transient write failure leaves bufio's
// sticky error and garbage in the buffer; compaction must rotate the file,
// clear the error, and leave the shard fully usable — the in-process
// recovery path for a disk that failed and came back.
func TestCompactHealsWoundedShard(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 1)
	commitT(t, l, Record{Op: OpCreate, ID: "i1", Initial: "R r1 a b"})

	// Wound the shard: kill its fd and poison the buffer, as a failed
	// partial flush would.
	w := l.shards[0]
	w.mu.Lock()
	_ = w.f.Close()
	_, _ = w.bw.WriteString("junk that must never reach the file")
	w.mu.Unlock()
	if _, err := l.Commit(Record{Op: OpIngest, ID: "i1", Facts: []Fact{{Rel: "R", Tag: "x", Values: []string{"q", "q"}}}}, nil); err == nil {
		t.Fatal("commit on a wounded shard should fail")
	}

	// The engine would capture its live registry here; this test rebuilds
	// the acknowledged state by hand (the create only — the wounded ingest
	// was never acknowledged).
	d, err := db.ParseInstance("R r1 a b")
	if err != nil {
		t.Fatal(err)
	}
	state := []InstanceState{{ID: "i1", DB: d, Version: 0, LastSeq: l.seq.Load()}}
	if _, err := l.Snapshot(func(int) []InstanceState { return state }, true); err != nil {
		t.Fatalf("compact on a wounded shard must heal it: %v", err)
	}
	commitT(t, l, Record{Op: OpIngest, ID: "i1", Facts: []Fact{{Rel: "R", Tag: "r2", Values: []string{"b", "c"}}}})
	l.Close()

	l2 := openT(t, dir, 1)
	defer l2.Close()
	in := findRecovered(l2, "i1")
	if in == nil || in.DB.NumTuples() != 2 {
		t.Fatalf("post-heal commit lost: %+v", in)
	}
}

func TestSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncInterval, SyncNone} {
		t.Run(string(mode), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir, Shards: 1, Sync: mode, SyncInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			commitT(t, l, Record{Op: OpCreate, ID: "i1", Initial: "R r a"})
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2 := openT(t, dir, 1)
			defer l2.Close()
			if in := findRecovered(l2, "i1"); in == nil || in.DB.NumTuples() != 1 {
				t.Fatalf("mode %s lost data across clean close: %+v", mode, in)
			}
		})
	}
}

func TestParseSyncMode(t *testing.T) {
	if _, err := ParseSyncMode("always"); err != nil {
		t.Error(err)
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestShardForStable(t *testing.T) {
	// The mapping is part of the on-disk contract (records of an instance
	// must stay in one stripe across restarts); pin a few values.
	for id, want := range map[string]int{"i1": ShardFor("i1", 8)} {
		for i := 0; i < 3; i++ {
			if got := ShardFor(id, 8); got != want {
				t.Fatalf("ShardFor(%q) unstable: %d vs %d", id, got, want)
			}
		}
	}
	counts := make([]int, 8)
	for i := 0; i < 1000; i++ {
		counts[ShardFor(fmt.Sprintf("i%d", i), 8)]++
	}
	for k, n := range counts {
		if n == 0 {
			t.Errorf("shard %d got no instances out of 1000 — bad distribution", k)
		}
	}
}

// TestReplayReleaseForgetsWithoutDrop: a release record (cluster handoff)
// must make replay forget the instance — like a drop — but never list it as
// dropped, because boot GC deletes dropped ids' blobs and a released blob
// belongs to the adopting node.
func TestReplayReleaseForgetsWithoutDrop(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 4)
	commitT(t, l, Record{Op: OpCreate, ID: "h1", Initial: "R r1 a b"})
	commitT(t, l, Record{Op: OpIngest, ID: "h1", Facts: []Fact{{Rel: "R", Tag: "r2", Values: []string{"b", "c"}}}})
	commitT(t, l, Record{Op: OpRelease, ID: "h1"})
	commitT(t, l, Record{Op: OpCreate, ID: "i2"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, 4)
	defer l2.Close()
	if findRecovered(l2, "h1") != nil {
		t.Fatal("released instance replayed into RAM")
	}
	if got := l2.DroppedIDs(); len(got) != 0 {
		t.Fatalf("released instance listed as dropped: %v", got)
	}
	if findRecovered(l2, "i2") == nil {
		t.Fatal("unrelated instance lost by release replay")
	}
	if got := l2.reg.Gauge("persist_replay_released_instances").Value(); got != 1 {
		t.Fatalf("persist_replay_released_instances = %d, want 1", got)
	}
}
