package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"provmin/internal/query"
	"provmin/internal/tier"
)

// newTieredEngine builds an ephemeral engine over an FS backend in a temp
// dir, janitor disabled so tests drive EnforceResidency deterministically.
func newTieredEngine(t *testing.T, cfg Config) (*Engine, tier.SnapshotBackend) {
	t.Helper()
	backend, err := tier.NewFSBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = backend
	if cfg.JanitorInterval == 0 {
		cfg.JanitorInterval = -1
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	e := New(cfg)
	t.Cleanup(e.Close)
	return e, backend
}

func seedFacts(n, offset int) []Fact {
	facts := make([]Fact, 0, n)
	for i := 0; i < n; i++ {
		facts = append(facts, Fact{
			Rel: "R", Tag: fmt.Sprintf("r%d", i+offset),
			Values: []string{fmt.Sprintf("v%d", (i+offset)%7), fmt.Sprintf("v%d", (i+offset+1)%7)},
		})
	}
	return facts
}

func TestEvictFaultInRoundTrip(t *testing.T) {
	e, _ := newTieredEngine(t, Config{})
	id := mustCreate(t, e, paperInstance)
	u := query.MustParseUnion(paperQuery)
	before, err := e.Query(context.Background(), id, u)
	if err != nil {
		t.Fatal(err)
	}

	if err := e.EvictInstance(id); err != nil {
		t.Fatal(err)
	}
	// The instance must be listed cold, with its last-known counts, and
	// listing must not fault it back in.
	var seen bool
	for _, info := range e.Instances() {
		if info.ID == id {
			seen = true
			if info.State != "cold" || info.Tuples != 3 {
				t.Fatalf("cold listing = %+v, want state=cold tuples=3", info)
			}
		}
	}
	if !seen {
		t.Fatal("evicted instance missing from listing")
	}
	if got := e.reg.Counter("engine_faultins_total").Value(); got != 0 {
		t.Fatalf("listing faulted in: %d fault-ins", got)
	}
	if e.InstanceCount() != 1 {
		t.Fatalf("InstanceCount = %d, want 1 (cold counts)", e.InstanceCount())
	}
	// Evicting a cold instance is a no-op.
	if err := e.EvictInstance(id); err != nil {
		t.Fatalf("evict of cold instance: %v", err)
	}

	// First touch faults it back in with identical content.
	after, err := e.Query(context.Background(), id, u)
	if err != nil {
		t.Fatal(err)
	}
	if before.Result.String() != after.Result.String() {
		t.Fatalf("result changed across evict/fault-in:\nbefore %s\nafter  %s", before.Result, after.Result)
	}
	if before.Version != after.Version {
		t.Fatalf("generation changed across evict/fault-in: %d -> %d", before.Version, after.Version)
	}
	if got := e.reg.Counter("engine_faultins_total").Value(); got != 1 {
		t.Fatalf("fault-ins = %d, want 1", got)
	}
	if got := e.reg.Counter("engine_evictions_total").Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

func TestEvictErrors(t *testing.T) {
	plain := newTestEngine(t)
	if err := plain.EvictInstance("i1"); !errors.Is(err, ErrNoTiering) {
		t.Fatalf("untiered evict = %v, want ErrNoTiering", err)
	}
	e, _ := newTieredEngine(t, Config{})
	if err := e.EvictInstance("nope"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("evict unknown = %v, want ErrUnknownInstance", err)
	}
}

func TestIngestAfterEviction(t *testing.T) {
	e, _ := newTieredEngine(t, Config{})
	id := mustCreate(t, e, paperInstance)
	if err := e.EvictInstance(id); err != nil {
		t.Fatal(err)
	}
	// Ingest on a cold instance faults it in and layers the new facts on
	// top of the blob state.
	if err := e.Ingest(id, []Fact{{Rel: "R", Tag: "r4", Values: []string{"b", "b"}}}); err != nil {
		t.Fatal(err)
	}
	info, ok := e.Instance(id)
	if !ok || info.Tuples != 4 {
		t.Fatalf("after fault-in ingest: %+v, want 4 tuples", info)
	}
}

// countingBackend wraps a backend counting Gets, to prove single-flight.
type countingBackend struct {
	tier.SnapshotBackend
	gets atomic.Int64
}

func (c *countingBackend) Get(ctx context.Context, id string) ([]byte, error) {
	c.gets.Add(1)
	return c.SnapshotBackend.Get(ctx, id)
}

func TestFaultInSingleFlight(t *testing.T) {
	fsb, err := tier.NewFSBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{SnapshotBackend: fsb}
	e := New(Config{Workers: 8, Backend: cb, JanitorInterval: -1})
	t.Cleanup(e.Close)
	id := mustCreate(t, e, paperInstance)
	if err := e.EvictInstance(id); err != nil {
		t.Fatal(err)
	}

	u := query.MustParseUnion(paperQuery)
	const callers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = e.Query(context.Background(), id, u)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := cb.gets.Load(); got != 1 {
		t.Fatalf("backend Gets = %d, want 1 (single-flight)", got)
	}
	if got := e.reg.Counter("engine_faultins_total").Value(); got != 1 {
		t.Fatalf("fault-ins = %d, want 1", got)
	}
}

func TestResidencyBudgetEnforced(t *testing.T) {
	const n = 8
	e, _ := newTieredEngine(t, Config{ResidentBudgetBytes: 1}) // everything over budget
	var ids []string
	for i := 0; i < n; i++ {
		id := mustCreate(t, e, "")
		if err := e.Ingest(id, seedFacts(32, i*32)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	evicted := e.EnforceResidency()
	if evicted != n-1 {
		t.Fatalf("evicted %d, want %d (budget keeps one resident)", evicted, n-1)
	}
	// The LRU keeps the most recently used: the last-created instance.
	res := e.Residency()
	if len(res.Resident) != 1 || res.Resident[0].ID != ids[n-1] {
		t.Fatalf("resident = %+v, want just %s", res.Resident, ids[n-1])
	}
	if len(res.Cold) != n-1 {
		t.Fatalf("cold = %d ids, want %d", len(res.Cold), n-1)
	}
	// After settling, resident bytes is the one kept instance's cost and the
	// gauge agrees with the internal accounting.
	if res.ResidentBytes != res.Resident[0].Bytes {
		t.Fatalf("resident bytes %d != surviving instance's %d", res.ResidentBytes, res.Resident[0].Bytes)
	}
	if g := e.reg.Gauge("engine_resident_bytes").Value(); g != res.ResidentBytes {
		t.Fatalf("gauge %d != accounting %d", g, res.ResidentBytes)
	}
	if g := e.reg.Gauge("engine_cold_instances").Value(); g != int64(n-1) {
		t.Fatalf("cold gauge = %d, want %d", g, n-1)
	}
	// Touching a cold instance faults it in; the budget then evicts the
	// previous survivor on the next pass.
	if _, ok := e.Instance(ids[0]); !ok {
		t.Fatalf("cold instance %s not faulted in", ids[0])
	}
	e.EnforceResidency()
	res = e.Residency()
	if len(res.Resident) != 1 || res.Resident[0].ID != ids[0] {
		t.Fatalf("after touch, resident = %+v, want just %s", res.Resident, ids[0])
	}
}

func TestColdAfterIdleEviction(t *testing.T) {
	e, _ := newTieredEngine(t, Config{ColdAfter: time.Millisecond})
	id := mustCreate(t, e, paperInstance)
	time.Sleep(5 * time.Millisecond)
	if n := e.EnforceResidency(); n != 1 {
		t.Fatalf("evicted %d idle instances, want 1", n)
	}
	res := e.Residency()
	if len(res.Cold) != 1 || res.Cold[0] != id {
		t.Fatalf("cold = %v, want [%s]", res.Cold, id)
	}
}

func TestDropColdInstance(t *testing.T) {
	e, backend := newTieredEngine(t, Config{})
	id := mustCreate(t, e, paperInstance)
	if err := e.EvictInstance(id); err != nil {
		t.Fatal(err)
	}
	dropped, err := e.DropInstance(id)
	if err != nil || !dropped {
		t.Fatalf("drop cold = (%v, %v), want (true, nil)", dropped, err)
	}
	if e.InstanceCount() != 0 {
		t.Fatalf("InstanceCount = %d after cold drop", e.InstanceCount())
	}
	ids, err := backend.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("blob survived cold drop: %v", ids)
	}
	if dropped, _ := e.DropInstance(id); dropped {
		t.Fatal("second drop reported true")
	}
}

// TestBudgetedWorkloadByteIdentical is the acceptance check: a workload
// over more instances than the budget admits, with evictions forced between
// every step, must produce byte-identical responses to the unbudgeted run.
func TestBudgetedWorkloadByteIdentical(t *testing.T) {
	run := func(t *testing.T, budget int64) []string {
		t.Helper()
		e, _ := newTieredEngine(t, Config{ResidentBudgetBytes: budget})
		var ids []string
		for i := 0; i < 6; i++ {
			id := mustCreate(t, e, "")
			if err := e.Ingest(id, seedFacts(24, i*5)); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		var out []string
		for round := 0; round < 3; round++ {
			// A distinct query per round: both runs miss the result cache
			// identically, so the comparison is about state, not caching.
			u := query.MustParseUnion(fmt.Sprintf("ans(x,z%d) :- R(x,y), R(y,z%d)", round, round))
			for i, id := range ids {
				if budget > 0 {
					e.EnforceResidency()
				}
				co, err := e.Core(context.Background(), id, u)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fmt.Sprintf("round=%d id=%d gen=%d\n%s", round, i, co.Version, co.Result))
				if err := e.Ingest(id, seedFacts(4, 1000+round*100+i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if budget > 0 && e.reg.Counter("engine_faultins_total").Value() == 0 {
			t.Fatal("budgeted run never faulted in — budget not exercised")
		}
		return out
	}
	unbudgeted := run(t, 0)
	budgeted := run(t, 1)
	if len(unbudgeted) != len(budgeted) {
		t.Fatalf("response counts differ: %d vs %d", len(unbudgeted), len(budgeted))
	}
	for i := range unbudgeted {
		if unbudgeted[i] != budgeted[i] {
			t.Fatalf("response %d differs under budget:\nunbudgeted:\n%s\nbudgeted:\n%s", i, unbudgeted[i], budgeted[i])
		}
	}
}

// TestEvictIngestQueryStress races ingests, queries, evictions and the
// enforcement pass; run under -race it is the single-flight/fencing proof.
// Every acknowledged ingest must be present exactly once at the end.
func TestEvictIngestQueryStress(t *testing.T) {
	e, _ := newTieredEngine(t, Config{ResidentBudgetBytes: 1})
	const nInst = 4
	var ids []string
	for i := 0; i < nInst; i++ {
		ids = append(ids, mustCreate(t, e, ""))
	}
	const perWorker = 50
	var wg sync.WaitGroup
	var acked [nInst]atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u := query.MustParseUnion("ans(x,y) :- R(x,y)")
			for i := 0; i < perWorker; i++ {
				k := (w + i) % nInst
				tag := fmt.Sprintf("w%d-%d", w, i)
				err := e.Ingest(ids[k], []Fact{{Rel: "R", Tag: tag, Values: []string{tag, tag}}})
				if err == nil {
					acked[k].Add(1)
				} else {
					t.Errorf("ingest: %v", err)
				}
				if i%5 == 0 {
					if _, err := e.Query(context.Background(), ids[k], u); err != nil {
						t.Errorf("query: %v", err)
					}
				}
				if i%7 == 0 {
					e.EnforceResidency()
				}
				if i%11 == 0 {
					_ = e.EvictInstance(ids[(k+1)%nInst]) // races drop/evict; error is fine
				}
			}
		}(w)
	}
	wg.Wait()
	for k, id := range ids {
		info, ok := e.Instance(id) // faults in if cold
		if !ok {
			t.Fatalf("instance %s lost", id)
		}
		if int64(info.Tuples) != acked[k].Load() {
			t.Fatalf("instance %s has %d tuples, want %d acknowledged", id, info.Tuples, acked[k].Load())
		}
	}
}

func BenchmarkEvict(b *testing.B) {
	backend, err := tier.NewFSBackend(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	e := New(Config{Workers: 4, Backend: backend, JanitorInterval: -1})
	b.Cleanup(e.Close)
	info, err := e.CreateInstance("")
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Ingest(info.ID, seedFacts(256, 0)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.EvictInstance(info.ID); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, ok := e.Instance(info.ID); !ok { // fault back in off the clock
			b.Fatal("fault-in failed")
		}
		b.StartTimer()
	}
}

func BenchmarkFaultIn(b *testing.B) {
	backend, err := tier.NewFSBackend(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	e := New(Config{Workers: 4, Backend: backend, JanitorInterval: -1})
	b.Cleanup(e.Close)
	info, err := e.CreateInstance("")
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Ingest(info.ID, seedFacts(256, 0)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := e.EvictInstance(info.ID); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.faultIn(info.ID); err != nil {
			b.Fatal(err)
		}
	}
}
