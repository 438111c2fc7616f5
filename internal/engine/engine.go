// Package engine is the concurrent provenance-evaluation engine behind the
// provmind service. It wraps the library's eval/minimize/direct layers with:
//
//   - a sharded registry of named annotated instances — N lock-striped
//     shards keyed by FNV hash of the instance id, so registry operations
//     on different instances contend only within a stripe — each instance
//     guarded by a read-write lock so queries run in parallel with each
//     other and serialize only against ingest;
//   - a bound of Config.Workers evaluations running at once;
//   - a per-instance ingest batcher that coalesces concurrent tuple
//     writes into single write-lock acquisitions (and, when durability is
//     on, single WAL records sharing group-commit fsyncs). It is
//     writer-led: the caller at the front of the queue flushes the writes
//     queued behind it on its own goroutine, so a write to an idle
//     instance is applied at once and batches grow only with load;
//   - an LRU cache from canonical query forms to their p-minimal
//     equivalents (MinProv output), so repeated core-provenance requests
//     skip Algorithm 1 — the worst-case-exponential step — entirely;
//   - an optional internal/persist write-ahead log: every acknowledged
//     create/ingest/drop is logged before it mutates memory, and a
//     restart replays snapshot + WAL back into an identical registry.
//
// The engine is safe for concurrent use by multiple goroutines.
//
// # Lock order
//
// The engine's locks form a strict hierarchy; a goroutine only acquires
// a lock that comes after every lock it already holds:
//
//	closeMu -> flight lock -> WAL stripe -> shard mu -> instance mu -> batcher mu
//
// closeMu is the close barrier (every registry transition holds its read
// side, Close the write side); the flight lock, one per instance id,
// serializes the transitions of that id; the WAL stripe mutex (in
// internal/persist) is held while a commit applies its record; the shard
// mutex guards one registry stripe's instance maps; the instance lock
// serializes ingest against queries on one instance; the batcher mutex
// guards its queue and is never held across a flush. Only transition
// (registry.go) holds closeMu's read side and a flight lock
// (waitResidency takes one only to wait it out), and only commit writes
// the log. The four mutex fields carry
// //provlint:lockorder levels 1–4, and the provlint lockdiscipline
// analyzer (see internal/analysis/lockdiscipline) rejects out-of-order
// acquisition of them at build time in CI.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"provmin/internal/apps/deletion"
	"provmin/internal/apps/prob"
	"provmin/internal/apps/trust"
	"provmin/internal/db"
	"provmin/internal/direct"
	"provmin/internal/eval"
	"provmin/internal/metrics"
	"provmin/internal/minimize"
	"provmin/internal/persist"
	"provmin/internal/query"
	"provmin/internal/semiring"
	"provmin/internal/tier"
)

// Config tunes a new Engine. Zero values select sensible defaults.
type Config struct {
	// Workers bounds the evaluations running at once (default GOMAXPROCS).
	Workers int
	// Eval configures the hash join's parallel probe for every query and
	// core computation. The zero value fans large joins out across
	// GOMAXPROCS workers.
	Eval eval.Options
	// CacheSize is the LRU capacity of the minimized-query cache
	// (default 1024 entries).
	CacheSize int
	// ResultCacheSize caps each instance's result cache in entries
	// (default 128; negative disables result caching).
	ResultCacheSize int
	// ResultCacheBytes bounds each instance's cached results in
	// approximate resident bytes (default 32 MiB; negative removes the
	// byte bound, leaving only the entry cap).
	ResultCacheBytes int64
	// IngestBatchSize caps the facts one flush takes (default 256). A
	// flush never waits for a batch to fill: it takes the requests queued
	// when it starts, so the cap binds only under load.
	IngestBatchSize int
	// Shards is the registry stripe count (default 8). When Persist is
	// set its stripe count wins, so one WAL stripe covers exactly one
	// registry stripe.
	Shards int
	// Persist enables durability: the engine adopts the log's recovered
	// instances at construction, write-ahead-logs every mutation, and
	// closes the log when the engine closes.
	Persist *persist.Log
	// Metrics receives engine counters and histograms; a private registry
	// is created when nil.
	Metrics *metrics.Registry
	// Backend enables tiered instance storage (see residency.go): idle
	// instances are snapshotted into per-instance blobs, evicted from RAM
	// and faulted back in transparently on next touch. When the engine is
	// durable the same backend must be passed as persist.Options.Cold so
	// WAL replay can read the blobs.
	Backend tier.SnapshotBackend
	// ResidentBudgetBytes bounds the approximate bytes of resident
	// instances; the janitor evicts LRU instances above it (0 = unbounded).
	// Ignored without Backend.
	ResidentBudgetBytes int64
	// ColdAfter evicts instances idle for at least this long regardless of
	// the byte budget (0 = never). Ignored without Backend.
	ColdAfter time.Duration
	// JanitorInterval is the residency-enforcement period (default 500ms;
	// negative disables the goroutine — tests call EnforceResidency
	// directly). Ignored without Backend.
	JanitorInterval time.Duration
	// AdoptOnMiss, when set alongside Backend, is consulted by lookup when
	// an instance id is neither resident nor cold. Returning AdoptOwned
	// adopts the id's blob from the (shared) backend as a locally-owned cold
	// instance — healing the crash window of a cluster rebalance handoff;
	// AdoptBorrowed loads a read-only borrowed copy — the replica read path
	// when this node is not the id's ring owner. AdoptNone keeps the miss.
	// Ignored without Backend.
	AdoptOnMiss func(id string) AdoptMode
}

// AdoptMode is an AdoptOnMiss verdict for an unknown instance id.
type AdoptMode int

const (
	// AdoptNone leaves the miss as ErrUnknownInstance.
	AdoptNone AdoptMode = iota
	// AdoptOwned adopts the id's cold blob as a locally-owned instance.
	AdoptOwned
	// AdoptBorrowed loads the id's cold blob as a read-only borrowed copy.
	AdoptBorrowed
)

// ErrClosed is returned for operations on a closed engine — a service
// availability condition, distinct from client errors.
var ErrClosed = errors.New("engine closed")

// ErrNoPersistence is returned by Snapshot/Compact when the engine runs
// without a data directory.
var ErrNoPersistence = errors.New("engine: durability disabled (no data directory)")

// ErrInvalidSeed wraps seed-parse failures in CreateInstance so callers
// can tell a malformed request (client fault) from a storage failure.
var ErrInvalidSeed = errors.New("invalid seed facts")

// ErrUnknownInstance is wrapped by every operation that names an instance
// the registry does not hold — a client addressing error (HTTP 404), never
// a service fault. Match with errors.Is.
var ErrUnknownInstance = errors.New("no such instance")

// ErrBorrowed rejects writes against a borrowed replica copy: its state
// belongs to another node, and mutating it here would fork the instance.
var ErrBorrowed = errors.New("engine: instance is a borrowed read-only copy")

// ErrInstanceExists is wrapped by CreateInstanceWithID when the requested
// id is already registered (resident or cold) — an HTTP 409 for clients.
var ErrInstanceExists = errors.New("engine: instance already exists")

// ErrBadInstanceID is wrapped by CreateInstanceWithID for ids that are not
// storage-key-safe — a client input error (HTTP 400).
var ErrBadInstanceID = errors.New("engine: invalid instance id")

// Engine is a long-lived, concurrency-safe provenance service core.
type Engine struct {
	cfg      Config
	reg      *metrics.Registry
	pool     *pool
	cache    *minCache
	resStats *resultCacheStats // shared by every instance's result cache
	met      engineMetrics
	log      *persist.Log // nil when running ephemeral

	shards []*regShard
	nextID atomic.Uint64
	closed atomic.Bool

	// closeMu is the shutdown barrier: every registry transition holds the
	// read side across its whole body (see transition), and Close takes
	// the write side — after setting closed and stopping the janitor,
	// before closing batchers and the log. A transition therefore either
	// observes closed before doing anything, or finishes its WAL commit
	// before the log's final sync.
	closeMu sync.RWMutex //provlint:lockorder 1

	// sfMu/inflight give Minimize singleflight semantics: concurrent
	// cache misses for one canonical key run MinProv once and share it.
	sfMu     sync.Mutex
	inflight map[string]*minFlight

	// Tiered-storage state (residency.go) and the flight locks
	// (registry.go). backend/tracker are nil/unused when tiering is off;
	// residentBytes and per-instance byte accounting are maintained either
	// way for /admin/cache and /metrics.
	backend       tier.SnapshotBackend
	tracker       *tier.Tracker
	residentBytes atomic.Int64
	resMu         sync.Mutex
	resFlights    map[string]*resFlight
	janitorStop   chan struct{}
	janitorDone   chan struct{}
}

// regShard is one registry stripe; its mutex comes after the stripe's WAL
// mutex in the lock order (see the package doc). count mirrors
// len(instances) so the occupancy gauges refresh without touching any
// other stripe's lock.
type regShard struct {
	mu        sync.RWMutex //provlint:lockorder 2
	instances map[string]*instance
	count     atomic.Int64
	// cold holds stub entries for this stripe's evicted instances: the
	// last-known InstanceInfo (zero-valued for boot-discovered blobs) with
	// State "cold". Guarded by mu; coldCount mirrors len(cold).
	cold      map[string]InstanceInfo
	coldCount atomic.Int64
}

// shardOf maps an instance id to its registry stripe with the same FNV
// hash persist uses for WAL stripes.
func (e *Engine) shardOf(id string) *regShard {
	return e.shards[persist.ShardFor(id, len(e.shards))]
}

// minFlight is one in-progress MinProv computation; min is valid (or nil,
// if the computation panicked) once done is closed.
type minFlight struct {
	done chan struct{}
	min  *query.UCQ
}

// instance is one annotated database plus its concurrency machinery. The
// batcher is created eagerly so Close/Drop never race a lazy initializer.
type instance struct {
	id string
	// borrowed marks a read-only replica copy loaded from another node's
	// cold blob (see handoff.go). Immutable after construction: ingest is
	// rejected, snapshots skip it, and evict/drop discard it without
	// touching the WAL or the shared blob.
	borrowed bool

	//provlint:lockorder 3
	mu      sync.RWMutex // guards db, version, lastSeq and bytes
	db      *db.Instance
	version uint64 // generation counter: bumped on every applied ingest batch
	lastSeq uint64 // last WAL sequence applied (0 when ephemeral)
	bytes   int64  // approximate resident size (instanceCost + factDelta)

	batcher *ingestBatcher
	results *resultCache // generation-stamped evaluated results
}

// engineMetrics holds the engine's metric handles, looked up once in New so
// no request, batch or transition pays a registry lookup.
type engineMetrics struct {
	queries, cores, ingestFacts, internedSymbols, minHits, minMisses *metrics.Counter
	evictions, evictErrors, faultIns, faultInErrors                  *metrics.Counter
	adopts, releases, borrows, borrowDiscards, blobGC, blobGCFails   *metrics.Counter
	instances, resident, cold, residentBytes, shards                 *metrics.Gauge
	shardMax, shardMin                                               *metrics.Gauge
	eval, queueWait, minProv, evict, faultIn, borrow                 *metrics.Histogram
}

func newEngineMetrics(reg *metrics.Registry) engineMetrics {
	return engineMetrics{
		queries:         reg.Counter("engine_queries_total"),
		cores:           reg.Counter("engine_core_total"),
		ingestFacts:     reg.Counter("engine_ingest_facts_total"),
		internedSymbols: reg.Counter("engine_interned_symbols_total"),
		minHits:         reg.Counter("engine_cache_hits_total"),
		minMisses:       reg.Counter("engine_cache_misses_total"),
		evictions:       reg.Counter("engine_evictions_total"),
		evictErrors:     reg.Counter("engine_evict_errors_total"),
		faultIns:        reg.Counter("engine_faultins_total"),
		faultInErrors:   reg.Counter("engine_faultin_errors_total"),
		adopts:          reg.Counter("engine_adopts_total"),
		releases:        reg.Counter("engine_releases_total"),
		borrows:         reg.Counter("engine_borrows_total"),
		borrowDiscards:  reg.Counter("engine_borrow_discards_total"),
		blobGC:          reg.Counter("engine_blob_gc_total"),
		blobGCFails:     reg.Counter("engine_blob_gc_failures_total"),
		instances:       reg.Gauge("engine_instances"),
		resident:        reg.Gauge("engine_resident_instances"),
		cold:            reg.Gauge("engine_cold_instances"),
		residentBytes:   reg.Gauge("engine_resident_bytes"),
		shards:          reg.Gauge("engine_shards"),
		shardMax:        reg.Gauge("engine_shard_max_instances"),
		shardMin:        reg.Gauge("engine_shard_min_instances"),
		eval:            reg.Histogram("engine_eval_seconds"),
		queueWait:       reg.Histogram("engine_queue_wait_seconds"),
		minProv:         reg.Histogram("engine_minprov_seconds"),
		evict:           reg.Histogram("engine_evict_seconds"),
		faultIn:         reg.Histogram("engine_faultin_seconds"),
		borrow:          reg.Histogram("engine_borrow_seconds"),
	}
}

// New creates an engine. With cfg.Persist set,
// the engine adopts every instance the log recovered from disk — the
// restart path of the paper's offline workflow (§1, §5): stored provenance
// outlives the process that computed it.
func New(cfg Config) *Engine {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	if cfg.ResultCacheSize == 0 {
		cfg.ResultCacheSize = 128
	}
	if cfg.ResultCacheBytes == 0 {
		cfg.ResultCacheBytes = 32 << 20
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	nShards := cfg.Shards
	if cfg.Persist != nil {
		nShards = cfg.Persist.Shards()
	}
	if nShards <= 0 {
		nShards = 8
	}
	e := &Engine{
		cfg:        cfg,
		reg:        reg,
		pool:       &pool{slots: make(chan struct{}, cfg.Workers), closed: make(chan struct{})},
		cache:      newMinCache(cfg.CacheSize),
		resStats:   newResultCacheStats(reg),
		met:        newEngineMetrics(reg),
		log:        cfg.Persist,
		shards:     make([]*regShard, nShards),
		inflight:   map[string]*minFlight{},
		backend:    cfg.Backend,
		tracker:    tier.NewTracker(),
		resFlights: map[string]*resFlight{},
	}
	for i := range e.shards {
		e.shards[i] = &regShard{instances: map[string]*instance{}, cold: map[string]InstanceInfo{}}
	}
	if e.log != nil {
		for _, st := range e.log.TakeRecovered() {
			e.link(e.newInstance(st, false))
		}
		e.raiseNextID(e.log.NextID())
	}
	e.updateShardGauges()
	if e.backend != nil && cfg.JanitorInterval >= 0 {
		interval := cfg.JanitorInterval
		if interval == 0 {
			interval = 500 * time.Millisecond
		}
		e.janitorStop = make(chan struct{})
		e.janitorDone = make(chan struct{})
		go e.janitor(interval)
	}
	return e
}

// Metrics returns the registry the engine records into.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Durable reports whether the engine write-ahead-logs its mutations.
func (e *Engine) Durable() bool { return e.log != nil }

// Close stops all ingest batchers, the evaluation bound and (when durable)
// the write-ahead log. In-flight work completes; subsequent calls fail.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	// Quiesce the janitor first: after this, no new janitor evictions start.
	if e.janitorStop != nil {
		close(e.janitorStop)
		<-e.janitorDone
	}
	// Shutdown barrier: wait out every in-flight registry/residency
	// transition (a new one observes closed under its read hold and backs
	// off). After this, nothing commits WAL records outside the batchers —
	// so an eviction racing shutdown can never leave an acknowledged evict
	// record unflushed behind the log's final sync.
	e.closeMu.Lock()
	e.closeMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	var insts []*instance
	for _, sh := range e.shards {
		sh.mu.Lock()
		for _, in := range sh.instances {
			insts = append(insts, in)
		}
		sh.mu.Unlock()
	}
	for _, in := range insts {
		in.batcher.close()
		// Symmetric with DropInstance: an embedder reusing the metrics
		// registry across engines must not inherit stale cache occupancy.
		in.results.purge()
	}
	e.pool.close()
	if e.log != nil {
		_ = e.log.Close()
	}
}

// InstanceInfo describes one instance for listings. State is "cold" for
// evicted instances (whose counts are the last known before eviction, or
// zero for blobs discovered at boot), "borrowed" for read-only replica
// copies, and empty for resident owned ones, so untiered listings render
// exactly as before.
type InstanceInfo struct {
	ID        string `json:"id"`
	Relations int    `json:"relations"`
	Tuples    int    `json:"tuples"`
	Version   uint64 `json:"version"`
	State     string `json:"state,omitempty"`
	Borrowed  bool   `json:"borrowed,omitempty"`
}

// CreateInstance registers a new annotated instance under a generated id,
// optionally seeded from facts in the db text format
// ("<relation> <tag> <value>..." per line). When durable, the create (with
// its seed text) is write-ahead-logged before the instance becomes visible.
func (e *Engine) CreateInstance(initial string) (InstanceInfo, error) {
	return e.createInstance(fmt.Sprintf("i%d", e.nextID.Add(1)), initial)
}

// CreateInstanceWithID registers a new instance under a caller-chosen id —
// the cluster router picks ids so the ring, not the owning node's counter,
// determines placement. The id must be storage-key-safe; a duplicate is
// ErrInstanceExists.
func (e *Engine) CreateInstanceWithID(id, initial string) (InstanceInfo, error) {
	if _, err := tier.BlobName(id); err != nil {
		return InstanceInfo{}, fmt.Errorf("%w: %v", ErrBadInstanceID, err)
	}
	// Keep generated ids from ever colliding with an explicit "i<n>".
	e.raiseNextID(numericInstanceID(id))
	return e.createInstance(id, initial)
}

// createInstance is the create transition behind both id schemes.
func (e *Engine) createInstance(id, initial string) (info InstanceInfo, err error) {
	err = e.transition(id, func(in *instance, cold bool) error {
		if in != nil || cold {
			return fmt.Errorf("%w: %q", ErrInstanceExists, id)
		}
		d := db.NewInstance()
		if initial != "" {
			parsed, err := db.ParseInstance(initial)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrInvalidSeed, err)
			}
			d = parsed
		}
		in = e.newInstance(persist.InstanceState{ID: id, DB: d}, false)
		applied, err := e.commit(persist.Record{Op: persist.OpCreate, ID: id, Initial: initial}, func(uint64) { e.link(in) })
		if !applied {
			return err
		}
		// A create whose sync failed is live and may well be durable: its
		// info goes back with the error, so the caller has a handle on it.
		info = InstanceInfo{ID: id, Relations: len(d.Relations()), Tuples: d.NumTuples()}
		return err
	})
	return info, err
}

// DropInstance removes an instance and stops its batcher; the boolean is
// false when no such instance exists. The batcher is closed before the
// drop is write-ahead-logged, so no write is applied or logged after the
// drop. A log-append failure leaves the instance fully in place and is
// reported as an error, distinct from not-found. A drop that was applied
// but whose fsync failed returns true with an error: the instance is gone
// from memory but the drop may not be durable.
func (e *Engine) DropInstance(id string) (dropped bool, err error) {
	err = e.transition(id, func(in *instance, cold bool) error {
		switch {
		case in == nil && !cold:
			return nil
		case in != nil && in.borrowed:
			// A borrowed copy is not ours to drop durably: discard the RAM
			// copy without a WAL record, and never GC the blob — it belongs
			// to the owning node.
			e.discardBorrowed(in)
			dropped = true
			return nil
		case in != nil:
			in.batcher.close()
		}
		applied, err := e.retire(in, persist.Record{Op: persist.OpDrop, ID: id}, false)
		if applied {
			// The drop record comes first: boot GC retries the blob
			// deletion via DroppedIDs if this one fails or a crash cuts in.
			dropped = true
			e.gcBlob(id)
		}
		return err
	})
	return dropped, err
}

// gcBlob best-effort deletes an instance's cold blob after a drop. A
// failure only leaves garbage (counted): replay ignores blobs of dropped
// ids and boot GC retries the deletion.
func (e *Engine) gcBlob(id string) {
	if e.backend == nil {
		return
	}
	if err := e.backend.Delete(context.Background(), id); err != nil {
		e.met.blobGCFails.Inc()
	}
}

// newResultCache builds one instance's result cache over the engine-wide
// stats family.
func (e *Engine) newResultCache() *resultCache {
	return newResultCache(e.cfg.ResultCacheSize, e.cfg.ResultCacheBytes, e.resStats)
}

// updateShardGauges refreshes total and per-stripe occupancy gauges from
// the lock-free per-stripe counters, so create/drop on one stripe never
// touches another stripe's lock.
func (e *Engine) updateShardGauges() {
	var resident, cold, maxN int64
	minN := int64(-1)
	for _, sh := range e.shards {
		n := sh.count.Load()
		resident += n
		cold += sh.coldCount.Load()
		if n > maxN {
			maxN = n
		}
		if minN < 0 || n < minN {
			minN = n
		}
	}
	e.met.instances.Set(resident + cold)
	e.met.resident.Set(resident)
	e.met.cold.Set(cold)
	e.met.residentBytes.Set(e.residentBytes.Load())
	e.met.shards.Set(int64(len(e.shards)))
	e.met.shardMax.Set(maxN)
	e.met.shardMin.Set(minN)
}

// InstanceCount returns the number of registered instances — resident and
// cold — from the lock-free stripe counters, cheap enough for liveness
// probes.
func (e *Engine) InstanceCount() int {
	var total int64
	for _, sh := range e.shards {
		total += sh.count.Load() + sh.coldCount.Load()
	}
	return int(total)
}

// Instances lists every instance, resident and cold, sorted by id. Cold
// entries are served from their registry stubs — listing never faults
// anything in.
func (e *Engine) Instances() []InstanceInfo {
	var insts []*instance
	var colds []InstanceInfo
	for _, sh := range e.shards {
		sh.mu.RLock()
		for _, in := range sh.instances {
			insts = append(insts, in)
		}
		for _, info := range sh.cold {
			colds = append(colds, info)
		}
		sh.mu.RUnlock()
	}
	out := make([]InstanceInfo, 0, len(insts)+len(colds))
	for _, in := range insts {
		out = append(out, e.describe(in))
	}
	out = append(out, colds...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Snapshot writes the current state of every shard to its snapshot file
// without touching the WAL; Compact additionally resets the WALs, bounding
// replay time. Both fail with ErrNoPersistence on an ephemeral engine.
func (e *Engine) Snapshot() (persist.SnapshotStats, error) { return e.snapshot(false) }

// Compact snapshots every shard and resets its write-ahead log.
func (e *Engine) Compact() (persist.SnapshotStats, error) { return e.snapshot(true) }

func (e *Engine) snapshot(compact bool) (persist.SnapshotStats, error) {
	if e.log == nil {
		return persist.SnapshotStats{}, ErrNoPersistence
	}
	if e.closed.Load() {
		return persist.SnapshotStats{}, ErrClosed
	}
	return e.log.Snapshot(e.captureShard, compact)
}

// captureShard deep-copies one registry stripe for a snapshot. It runs
// with the stripe's WAL mutex held (see persist.Log.Snapshot), takes the
// registry and instance locks in the documented order, and sorts by id so
// snapshot files are deterministic.
func (e *Engine) captureShard(k int) []persist.InstanceState {
	sh := e.shards[k]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]persist.InstanceState, 0, len(sh.instances))
	for _, in := range sh.instances {
		if in.borrowed {
			// Borrowed copies are another node's state: capturing one would
			// resurrect it as locally owned on replay.
			continue
		}
		in.mu.RLock()
		out = append(out, persist.InstanceState{ID: in.id, DB: in.db.Clone(), Version: in.version, LastSeq: in.lastSeq})
		in.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Generation returns an instance's current generation counter — the
// cluster router's cache-coherence token. A cold instance is faulted in
// first: a stub's remembered version may predate boot-discovered blobs, and
// a wrong generation here would let the router serve a stale cached result,
// so correctness wins over keeping the instance cold.
func (e *Engine) Generation(id string) (uint64, error) {
	in, err := e.lookup(id)
	if err != nil {
		return 0, err
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.version, nil
}

// Instance returns info for one instance.
func (e *Engine) Instance(id string) (InstanceInfo, bool) {
	in, err := e.lookup(id)
	if err != nil {
		return InstanceInfo{}, false
	}
	return e.describe(in), true
}

func (e *Engine) describe(in *instance) InstanceInfo {
	in.mu.RLock()
	defer in.mu.RUnlock()
	info := InstanceInfo{
		ID:        in.id,
		Relations: len(in.db.Relations()),
		Tuples:    in.db.NumTuples(),
		Version:   in.version,
	}
	if in.borrowed {
		info.State = "borrowed"
		info.Borrowed = true
	}
	return info
}

// lookup resolves an instance id to its resident instance. With tiering
// enabled a cold instance is faulted back in first; the loop re-checks
// residency after each fault-in because a concurrent eviction can undo it
// (the janitor under byte pressure), bounded by faultInRetries so a
// pathologically tight budget surfaces as an error instead of a livelock.
func (e *Engine) lookup(id string) (*instance, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	sh := e.shardOf(id)
	if e.backend == nil {
		return lookupResident(sh, id)
	}
	adoptTried := false
	for range faultInRetries {
		sh.mu.RLock()
		in, ok := sh.instances[id]
		_, cold := sh.cold[id]
		sh.mu.RUnlock()
		if ok {
			e.tracker.Touch(id, time.Now())
			return in, nil
		}
		if !cold {
			// Unknown here, but with a shared cold tier the blob may exist
			// under another node's ownership history: a cluster deployment
			// decides via AdoptOnMiss whether to adopt it (ring owner) or
			// borrow a read-only copy (replica read path). One attempt per
			// lookup — a second miss is a real miss.
			if e.cfg.AdoptOnMiss != nil && !adoptTried {
				adoptTried = true
				switch e.cfg.AdoptOnMiss(id) {
				case AdoptOwned:
					if err := e.AdoptInstance(context.Background(), id); err != nil {
						return nil, err
					}
					continue
				case AdoptBorrowed:
					if err := e.borrowIn(id); err != nil {
						return nil, err
					}
					continue
				}
			}
			return nil, fmt.Errorf("%w %q", ErrUnknownInstance, id)
		}
		if err := e.faultIn(id); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("instance %q: faulted in %d times without staying resident (resident budget too small?)", id, faultInRetries)
}

// lookupResident resolves an id on a shard with no cold tier: the
// instance is resident or it does not exist. Split out of lookup so the
// shard lock's scope is one straight-line function.
func lookupResident(sh *regShard, id string) (*instance, error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	in, ok := sh.instances[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownInstance, id)
	}
	return in, nil
}

// evalCached evaluates u over the instance under its read lock, serving
// from the result cache when an entry exists at the instance's current
// generation. The generation is read under the same lock hold that runs
// the evaluation, so a cached result is exactly the result a cold
// evaluation at that generation produces. maintained reports whether a hit
// was served from an entry whose stamp came from delta promotion rather
// than full evaluation. Concurrent misses for one key may evaluate
// redundantly; the freshest-generation put wins, all of them are correct.
func (e *Engine) evalCached(in *instance, u *query.UCQ) (res *eval.Result, gen uint64, hit, maintained bool, err error) {
	key := resultKey(u)
	in.mu.RLock()
	defer in.mu.RUnlock()
	gen = in.version
	if res, maintained, ok := in.results.get(key, gen); ok {
		return res, gen, true, maintained, nil
	}
	start := time.Now()
	res, err = eval.EvalUCQOpts(u, in.db, e.cfg.Eval)
	if err != nil {
		return nil, gen, false, false, err
	}
	e.met.eval.Observe(time.Since(start))
	in.results.put(key, gen, u, res)
	return res, gen, false, false, nil
}

// Ingest applies a group of facts to an instance through its batcher; it
// blocks until the facts are visible to queries (and, when durable, logged
// — with SyncAlways, fsynced). Facts of one call are applied atomically:
// with respect to concurrent queries, and also on failure — one bad fact
// rejects the whole call without applying any of it. The one exception is
// a WAL fsync failure after the facts were logged and applied: the error
// then says "applied but not confirmed durable", and callers must treat
// the write as neither lost nor guaranteed.
func (e *Engine) Ingest(id string, facts []Fact) error {
	for range faultInRetries {
		in, err := e.lookup(id)
		if err != nil {
			return err
		}
		if in.borrowed {
			return fmt.Errorf("%w: %s", ErrBorrowed, id)
		}
		if len(facts) == 0 {
			return nil
		}
		if err := in.batcher.add(facts); err != nil {
			if errors.Is(err, errInstanceClosed) && !e.closed.Load() {
				// The batcher was closed by a removal racing this write.
				// Wait for the transition to settle, then retry: lookup
				// faults an evicted instance back in with an open batcher,
				// or reports a dropped one unknown.
				e.waitResidency(id)
				continue
			}
			if errors.Is(err, errInstanceClosed) {
				return ErrClosed
			}
			return err
		}
		e.met.ingestFacts.Add(int64(len(facts)))
		return nil
	}
	return fmt.Errorf("ingest %s: instance kept being evicted mid-write (resident budget too small?)", id)
}

// ParseUnion parses query text into a UCQ≠ (one rule, or several separated
// by ';' / newlines).
func ParseUnion(text string) (*query.UCQ, error) { return query.ParseUnion(text) }

// QueryOut is the result of a full-provenance query request.
type QueryOut struct {
	Result        *eval.Result
	Version       uint64 // instance generation the result reflects
	CacheHit      bool   // served from the result cache (evaluation skipped)
	MaintainedHit bool   // the serving entry was promoted by delta maintenance
}

// Query evaluates a union over an instance with full N[X] provenance
// annotations. It holds the instance read lock for the duration of the
// evaluation, so results are a consistent snapshot; repeated queries at an
// unchanged generation are served from the result cache. The returned
// result may be shared with other callers and must not be mutated.
func (e *Engine) Query(ctx context.Context, id string, u *query.UCQ) (*QueryOut, error) {
	in, err := e.lookup(id)
	if err != nil {
		return nil, err
	}
	e.met.queries.Inc()
	return run(ctx, e, func() (*QueryOut, error) {
		res, gen, hit, maintained, err := e.evalCached(in, u)
		if err != nil {
			return nil, err
		}
		return &QueryOut{Result: res, Version: gen, CacheHit: hit, MaintainedHit: maintained}, nil
	})
}

// Minimize returns the p-minimal form of u, consulting the LRU cache first.
// The boolean reports whether MinProv was skipped (an LRU hit, or another
// caller's in-flight computation was joined). Cached values are shared and
// must not be mutated by callers.
func (e *Engine) Minimize(u *query.UCQ) (*query.UCQ, bool) {
	key := CanonicalKey(u)
	for {
		if min, ok := e.cache.get(key); ok {
			e.met.minHits.Inc()
			return min, true
		}
		e.sfMu.Lock()
		if fl, ok := e.inflight[key]; ok {
			// Another worker is already running MinProv — the
			// worst-case-exponential step — for this key; join it
			// rather than duplicating the work.
			e.sfMu.Unlock()
			<-fl.done
			if fl.min != nil {
				e.met.minHits.Inc()
				return fl.min, true
			}
			continue // leader panicked; retry (likely becoming leader)
		}
		fl := &minFlight{done: make(chan struct{})}
		e.inflight[key] = fl
		e.sfMu.Unlock()

		e.met.minMisses.Inc()
		defer func() {
			e.sfMu.Lock()
			delete(e.inflight, key)
			e.sfMu.Unlock()
			close(fl.done)
		}()
		start := time.Now()
		min := minimize.MinProv(u)
		e.met.minProv.Observe(time.Since(start))
		e.cache.put(key, min)
		fl.min = min
		return min, false
	}
}

// CacheLen returns the number of cached minimized queries.
func (e *Engine) CacheLen() int { return e.cache.len() }

// InstanceCacheStats is one instance's result-cache occupancy plus the
// approximate resident size of the instance itself.
type InstanceCacheStats struct {
	ID         string `json:"id"`
	Generation uint64 `json:"generation"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	// InstanceBytes is the approximate resident footprint of the instance
	// database (tags, values, index bookkeeping) — the unit the tiered
	// byte budget is enforced in.
	InstanceBytes int64 `json:"instance_bytes"`
}

// ResultCacheStats reports the result-cache state across all instances:
// totals from the shared counters, per-instance occupancy sorted by id, and
// the configured per-instance bounds.
type ResultCacheStats struct {
	Enabled       bool                 `json:"enabled"`
	MaxEntries    int                  `json:"max_entries_per_instance"`
	MaxBytes      int64                `json:"max_bytes_per_instance"`
	Entries       int64                `json:"entries"`
	Bytes         int64                `json:"bytes"`
	Hits          int64                `json:"hits"`
	Misses        int64                `json:"misses"`
	Evictions     int64                `json:"evictions"`
	Invalidations int64                `json:"invalidations"`
	Promotions    int64                `json:"promotions"`
	MinCacheLen   int                  `json:"minimized_query_entries"`
	Instances     []InstanceCacheStats `json:"instances"`
}

// ResultCacheStatsNow snapshots the result cache for /admin/cache.
func (e *Engine) ResultCacheStatsNow() ResultCacheStats {
	st := ResultCacheStats{
		Enabled:       e.cfg.ResultCacheSize > 0,
		MaxEntries:    e.cfg.ResultCacheSize,
		MaxBytes:      e.cfg.ResultCacheBytes,
		Entries:       e.resStats.entries.Value(),
		Bytes:         e.resStats.bytes.Value(),
		Hits:          e.resStats.hits.Value(),
		Misses:        e.resStats.misses.Value(),
		Evictions:     e.resStats.evictions.Value(),
		Invalidations: e.resStats.invalidations.Value(),
		Promotions:    e.resStats.promotions.Value(),
		MinCacheLen:   e.cache.len(),
		Instances:     []InstanceCacheStats{},
	}
	for _, sh := range e.shards {
		sh.mu.RLock()
		for _, in := range sh.instances {
			entries, bytes := in.results.usage()
			in.mu.RLock()
			gen, instBytes := in.version, in.bytes
			in.mu.RUnlock()
			st.Instances = append(st.Instances, InstanceCacheStats{
				ID: in.id, Generation: gen, Entries: entries, Bytes: bytes,
				InstanceBytes: instBytes,
			})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(st.Instances, func(i, j int) bool { return st.Instances[i].ID < st.Instances[j].ID })
	return st
}

// CoreOut is the result of a core-provenance request.
type CoreOut struct {
	Result         *eval.Result // tuples annotated with core provenance
	Minimized      *query.UCQ   // the p-minimal query that realized it
	CacheHit       bool         // whether MinProv was skipped
	ResultCacheHit bool         // whether the evaluation itself was skipped
	MaintainedHit  bool         // the serving entry was promoted by delta maintenance
	Version        uint64       // instance generation the result reflects
}

// Core computes the core provenance of every answer tuple of u on the
// instance by evaluating the cached (or freshly computed) p-minimal form,
// which realizes the core provenance on abstractly-tagged databases
// (Theorem 4.6). Repeated calls with the same query hit the minimization
// cache and skip Algorithm 1.
func (e *Engine) Core(ctx context.Context, id string, u *query.UCQ) (*CoreOut, error) {
	in, err := e.lookup(id)
	if err != nil {
		return nil, err
	}
	e.met.cores.Inc()
	return run(ctx, e, func() (*CoreOut, error) {
		min, hit := e.Minimize(u)
		// The result is cached under the minimized form's canonical key, so
		// a /core of u and a /query of min share one materialization.
		res, gen, resHit, maintained, err := e.evalCached(in, min)
		if err != nil {
			return nil, err
		}
		return &CoreOut{Result: res, Minimized: min, CacheHit: hit, ResultCacheHit: resHit, MaintainedHit: maintained, Version: gen}, nil
	})
}

// CoreDirect computes core provenance without the minimized query: it
// evaluates u as-is and post-processes every polynomial with the direct
// Theorem 5.1 construction. It is the cross-check path for Core and the
// fallback when callers want cores on a database that is not abstractly
// tagged up to the paper's assumptions.
func (e *Engine) CoreDirect(ctx context.Context, id string, u *query.UCQ) (*eval.Result, error) {
	in, err := e.lookup(id)
	if err != nil {
		return nil, err
	}
	return run(ctx, e, func() (*eval.Result, error) {
		in.mu.RLock()
		defer in.mu.RUnlock()
		res, err := eval.EvalUCQOpts(u, in.db, e.cfg.Eval)
		if err != nil {
			return nil, err
		}
		return direct.CoreResult(res, in.db, u.Consts())
	})
}

// TupleProvenance returns P(t, u, D) for one tuple (the zero polynomial if
// the tuple is not an answer). The full evaluation behind it goes through
// the result cache, so repeated /prob and /trust calls at an unchanged
// generation — even for different tuples — share one materialization.
func (e *Engine) TupleProvenance(ctx context.Context, id string, u *query.UCQ, t db.Tuple) (semiring.Polynomial, error) {
	return tupleRun(ctx, e, id, u, t, false, func(p semiring.Polynomial) (semiring.Polynomial, error) { return p, nil })
}

// tupleRun computes P(t, u, D), reduced to its core up to coefficients when
// useCore is set, and hands it to fn, all inside one evaluation slot: a
// /prob or /trust request waits in the queue once.
func tupleRun[T any](ctx context.Context, e *Engine, id string, u *query.UCQ, t db.Tuple, useCore bool, fn func(semiring.Polynomial) (T, error)) (val T, err error) {
	in, err := e.lookup(id)
	if err != nil {
		return val, err
	}
	return run(ctx, e, func() (T, error) {
		res, _, _, _, err := e.evalCached(in, u)
		if err != nil {
			return val, err
		}
		p, _ := res.Lookup(t)
		if useCore {
			p = direct.CoreUpToCoefficients(p)
		}
		return fn(p)
	})
}

// ProbOpts configures Probability.
type ProbOpts struct {
	// Probs maps tags to probabilities; Default is used for absent tags.
	Probs   map[string]float64
	Default float64
	// UseCore first reduces the polynomial to its core (up to
	// coefficients), shrinking the inclusion–exclusion input without
	// changing the answer.
	UseCore bool
	// MCSamples switches to Monte Carlo estimation when positive.
	MCSamples int
	Seed      int64
}

func (o ProbOpts) tagProb(tag string) float64 {
	if p, ok := o.Probs[tag]; ok {
		return p
	}
	return o.Default
}

// Probability computes the derivation probability of tuple t under a
// tuple-independent probabilistic database (apps/prob on top of the
// provenance polynomial).
func (e *Engine) Probability(ctx context.Context, id string, u *query.UCQ, t db.Tuple, opts ProbOpts) (float64, error) {
	return tupleRun(ctx, e, id, u, t, opts.UseCore, func(p semiring.Polynomial) (float64, error) {
		if opts.MCSamples > 0 {
			return prob.MonteCarlo(p, opts.tagProb, opts.MCSamples, opts.Seed), nil
		}
		return prob.Exact(p, opts.tagProb)
	})
}

// TrustOpts configures Trust: per-tag values plus a default.
type TrustOpts struct {
	Values  map[string]float64
	Default float64
	// Confidence selects Viterbi (most-confident derivation) instead of
	// tropical cheapest-cost.
	Confidence bool
	// UseCore reduces to the core polynomial first.
	UseCore bool
}

func (o TrustOpts) tagValue(tag string) float64 {
	if v, ok := o.Values[tag]; ok {
		return v
	}
	return o.Default
}

// Trust evaluates the trust of tuple t: cheapest-derivation cost in the
// tropical semiring, or most-confident derivation when opts.Confidence.
func (e *Engine) Trust(ctx context.Context, id string, u *query.UCQ, t db.Tuple, opts TrustOpts) (float64, error) {
	return tupleRun(ctx, e, id, u, t, opts.UseCore, func(p semiring.Polynomial) (float64, error) {
		if opts.Confidence {
			return trust.Confidence(p, opts.tagValue), nil
		}
		return trust.Cost(p, opts.tagValue), nil
	})
}

// DeletionOut reports deletion propagation over a whole result.
type DeletionOut struct {
	Survivors []db.Tuple
	Lost      []db.Tuple
}

// Deletion evaluates u, then partitions the answer tuples into those that
// survive deleting the tagged input tuples and those that are lost —
// deletion propagation from provenance alone, no re-evaluation.
func (e *Engine) Deletion(ctx context.Context, id string, u *query.UCQ, deletedTags []string) (*DeletionOut, error) {
	in, err := e.lookup(id)
	if err != nil {
		return nil, err
	}
	deleted := make(map[string]bool, len(deletedTags))
	for _, tg := range deletedTags {
		deleted[tg] = true
	}
	return run(ctx, e, func() (*DeletionOut, error) {
		res, _, _, _, err := e.evalCached(in, u)
		if err != nil {
			return nil, err
		}
		// Propagate only reads the (shared, immutable) cached result.
		surv, lost := deletion.Propagate(res, deleted)
		return &DeletionOut{Survivors: surv, Lost: lost}, nil
	})
}
