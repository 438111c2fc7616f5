package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"provmin/internal/db"
	"provmin/internal/engine"
	"provmin/internal/minimize"
	"provmin/internal/persist"
	"provmin/internal/query"
)

// Instance and catalogue sizes shared by every workload. Each instance is
// a random directed graph R over graphNodes values with graphEdges edges,
// every edge abstractly tagged (about 66 KB resident).
const (
	graphNodes     = 200
	graphEdges     = 600
	catalogueSize  = 16
	catalogueSeed  = 11
	freshSeed      = 12
	multiFactSize  = 8
	sinkInstanceID = "sink"
)

// workload is one traffic mix: the processes it runs against, the
// instances it seeds, its open-loop arrival rate and its request mix.
type workload struct {
	name string
	why  string
	// rate is the open-loop arrival rate in requests per second, set near
	// 10–30% of the workload's two-connection capacity so latency measures
	// service time rather than queueing.
	rate      float64
	instances int
	// nodes is the number of provmind processes; with more than one, a
	// provrouter fronts them and receives the load.
	nodes int
	// walSync is the -wal-sync mode of a durable workload; empty keeps
	// the nodes in memory.
	walSync string
	// residentBudget is each node's -resident-budget-bytes; nonzero adds
	// a shared fs cold tier.
	residentBudget int64

	// The mix is one round of requests, dealt shuffled (see deck). Each
	// instance is read with `queries` catalogue queries, or with fresh
	// queries when it is 0; each (instance, query) pair gets coreReps
	// /core and queryReps /query reads per round. With zipfReads, reads
	// are instead apportioned over the instances by Zipf(zipfS) weights.
	queries             int
	coreReps, queryReps int
	zipfS               float64
	zipfReads           int
	// writeShare of the requests ingest facts, into the read instances or,
	// with sinkWrites, into an extra instance no request reads, so reads
	// keep their caches. With multiFact every eighth ingest carries
	// multiFactSize facts instead of one.
	writeShare float64
	sinkWrites bool
	multiFact  bool
}

var workloads = []*workload{
	{
		name:      "hot-core",
		why:       "steady-state service path: every read hits the result and MinProv caches, so server, JSON and pool do the work",
		rate:      1000,
		instances: 8, nodes: 1,
		queries: catalogueSize, coreReps: 4, queryReps: 1,
		writeShare: 0.05, sinkWrites: true, multiFact: true,
	},
	{
		name:      "cold-eval",
		why:       "every read is a new query, so MinProv and the join evaluator do the work behind missed caches",
		rate:      100,
		instances: 8, nodes: 1,
		coreReps: 4, queryReps: 1,
		writeShare: 0.05, sinkWrites: true, multiFact: true,
	},
	{
		name:      "durable-ingest",
		why:       "write path: batcher, WAL group-commit fsync and delta maintenance of cached /core results beside reads",
		rate:      200,
		instances: 8, nodes: 1, walSync: "always",
		queries: 4, coreReps: 1,
		writeShare: 0.75, multiFact: true,
	},
	{
		name:      "routed-tiered",
		why:       "through provrouter over 2 nodes whose RAM budget holds a quarter of the instances: proxy hop, router cache, fault-in",
		rate:      250,
		instances: 64, nodes: 2, walSync: "interval", residentBudget: 512 << 10,
		queries: catalogueSize, coreReps: 1, zipfS: 1.1, zipfReads: 400,
		writeShare: 0.10,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// instanceID names the i-th seeded instance.
func instanceID(i int) string { return fmt.Sprintf("b%d", i) }

// instanceTexts returns the seed facts of every instance in the db text
// format, a pure function of the seed.
func instanceTexts(seed int64, n int) []string {
	out := make([]string, n)
	for i := range out {
		d := db.NewInstance()
		db.NewGenerator(seed*1_000_003+int64(i)).RandomGraph(d, "R", graphNodes, graphEdges)
		out[i] = db.FormatInstance(d)
	}
	return out
}

// catalogue returns the fixed queries that hot-core, durable-ingest and
// routed-tiered read: connected CQ≠s drawn once from a constant seed. They
// do not vary with -seed because so few queries would otherwise make a
// run's cost depend on which seed drew a heavy one; the instances, the
// request order and every other draw still come from -seed.
func catalogue() []cq {
	rng := rand.New(rand.NewSource(catalogueSeed))
	ref := referenceGraph()
	seen := map[string]bool{}
	var out []cq
	for len(out) < catalogueSize {
		q := randomCQ(rng)
		if !ref.light([]cq{q}) {
			continue
		}
		key := engine.CanonicalKey(query.MustParseUnion(q.String()))
		if !seen[key] {
			seen[key] = true
			out = append(out, q)
		}
	}
	return out
}

// instanceQuery returns the catalogue index of an instance's j-th query
// when each instance reads n of them: consecutive instances take
// consecutive slices of the catalogue, so all of it is read.
func instanceQuery(inst, j, n int) int { return (inst*n + j) % catalogueSize }

// kind is a request type.
type kind int

const (
	kindCore kind = iota
	kindQuery
	kindIngest
)

func (k kind) isRead() bool { return k != kindIngest }

// slot is the shape of one request in a round of the mix.
type slot struct {
	kind  kind
	inst  int // -1 for the sink
	query int // catalogue index; -1 for a fresh query
	facts int // facts an ingest carries
}

// deck returns one round of the workload's mix: every request shape in
// exact proportion. Streams deal rounds shuffled by the seed, so a phase
// holds the mix exactly while the order varies; drawing each request
// independently instead made the share of heavy queries, and with it the
// p90, differ from seed to seed.
func (wl *workload) deck() []slot {
	var reads []slot
	addReads := func(inst, q int) {
		for i := 0; i < wl.coreReps; i++ {
			reads = append(reads, slot{kind: kindCore, inst: inst, query: q})
		}
		for i := 0; i < wl.queryReps; i++ {
			reads = append(reads, slot{kind: kindQuery, inst: inst, query: q})
		}
	}
	var weights []float64
	if wl.zipfReads > 0 {
		weights = zipfWeights(wl.instances, wl.zipfS)
		for inst, n := range apportion(wl.zipfReads, weights) {
			for j := 0; j < n; j++ {
				addReads(inst, (inst+j)%catalogueSize)
			}
		}
	} else {
		for inst := 0; inst < wl.instances; inst++ {
			if wl.queries == 0 {
				addReads(inst, -1)
			}
			for j := 0; j < wl.queries; j++ {
				addReads(inst, instanceQuery(inst, j, wl.queries))
			}
		}
	}
	writes := int(math.Round(float64(len(reads)) * wl.writeShare / (1 - wl.writeShare)))
	writeInst := func(j int) int { return j % wl.instances }
	if weights != nil {
		var insts []int
		for inst, n := range apportion(writes, weights) {
			for ; n > 0; n-- {
				insts = append(insts, inst)
			}
		}
		writeInst = func(j int) int { return insts[j] }
	}
	out := reads
	for j := 0; j < writes; j++ {
		w := slot{kind: kindIngest, inst: -1, query: -1, facts: 1}
		if wl.multiFact && j%8 == 7 {
			w.facts = multiFactSize
		}
		if !wl.sinkWrites {
			w.inst = writeInst(j)
		}
		out = append(out, w)
	}
	return out
}

// zipfWeights are the weights of Zipf(s) over n ranks, as math/rand's
// Zipf with v = 1 draws them: rank k has weight (1+k)^-s.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for k := range w {
		w[k] = math.Pow(float64(1+k), -s)
	}
	return w
}

// apportion splits total into integer counts proportional to the weights
// by largest remainders.
func apportion(total int, weights []float64) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := total
	for i, w := range weights {
		exact := float64(total) * w / sum
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// request is one generated HTTP request plus what the oracle needs to
// check its answer.
type request struct {
	seq   int // position in the stream, from 0
	kind  kind
	inst  int    // instance index; -1 for the sink
	text  string // query text of a read
	facts []persist.Fact
	path  string
	body  []byte
}

// stream generates a workload's requests, a pure function of the seed:
// equal seeds give byte-identical streams.
type stream struct {
	rng       *rand.Rand
	fresh     *rand.Rand // draws fresh queries; see freshQuery
	ref       *graph
	deck      []slot
	round     []slot // the current round, dealt from the front
	catalogue []cq
	used      []map[[2]int]bool // edges present or already generated, per instance
	seen      map[string]bool   // cache keys of fresh queries sent
	seq       int
	tags      int
	sinkVals  int
}

func newStream(wl *workload, seed int64, texts []string) (*stream, error) {
	s := &stream{
		rng:       rand.New(rand.NewSource(seed)),
		fresh:     rand.New(rand.NewSource(freshSeed)),
		ref:       referenceGraph(),
		deck:      wl.deck(),
		catalogue: catalogue(),
		used:      make([]map[[2]int]bool, wl.instances),
		seen:      map[string]bool{},
	}
	if wl.writeShare > 0 && !wl.sinkWrites {
		for i, text := range texts {
			d, err := db.ParseInstance(text)
			if err != nil {
				return nil, fmt.Errorf("instance %d: %w", i, err)
			}
			s.used[i] = map[[2]int]bool{}
			for _, row := range d.Lookup("R").Rows() {
				s.used[i][[2]int{valueIndex(row.Tuple[0]), valueIndex(row.Tuple[1])}] = true
			}
		}
	}
	return s, nil
}

// valueIndex inverts the generator's value names d0..d{n-1}.
func valueIndex(v string) int {
	var i int
	_, _ = fmt.Sscanf(v, "d%d", &i)
	return i
}

// take returns the next n requests.
func (s *stream) take(n int) []*request {
	out := make([]*request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func (s *stream) next() *request {
	if len(s.round) == 0 {
		s.round = append(s.round[:0], s.deck...)
		s.rng.Shuffle(len(s.round), func(i, j int) { s.round[i], s.round[j] = s.round[j], s.round[i] })
	}
	sl := s.round[0]
	s.round = s.round[1:]
	r := &request{seq: s.seq, kind: sl.kind, inst: sl.inst}
	s.seq++
	id := sinkInstanceID
	if sl.inst >= 0 {
		id = instanceID(sl.inst)
	}
	if sl.kind == kindIngest {
		r.facts = s.freshFacts(sl.inst, sl.facts)
		r.path = "/instances/" + id + "/tuples"
		r.body = mustJSON(map[string]any{"facts": r.facts})
		return r
	}
	if sl.query < 0 {
		r.text = s.freshQuery()
	} else {
		r.text = s.catalogue[sl.query].String()
	}
	r.path = "/core"
	if sl.kind == kindQuery {
		r.path = "/query"
	}
	r.body = mustJSON(map[string]string{"instance": id, "query": r.text})
	return r
}

// freshFacts returns n facts with new tags over tuples the instance does
// not hold yet, so every ingest is a pure insertion: a fact that re-tagged
// an existing tuple would make the engine invalidate cached results
// instead of maintaining them. Sink facts use fresh values instead.
func (s *stream) freshFacts(inst, n int) []persist.Fact {
	facts := make([]persist.Fact, n)
	for i := range facts {
		s.tags++
		tag := fmt.Sprintf("w%d", s.tags)
		if inst < 0 {
			s.sinkVals++
			v := fmt.Sprintf("v%d", s.sinkVals)
			facts[i] = persist.Fact{Rel: "R", Tag: tag, Values: []string{v, v}}
			continue
		}
		for {
			e := [2]int{s.rng.Intn(graphNodes), s.rng.Intn(graphNodes)}
			if s.used[inst][e] {
				continue
			}
			s.used[inst][e] = true
			facts[i] = persist.Fact{Rel: "R", Tag: tag, Values: []string{fmt.Sprintf("d%d", e[0]), fmt.Sprintf("d%d", e[1])}}
			break
		}
	}
	return facts
}

// freshQuery draws queries until one whose canonical key, and the key of
// its p-minimal form, were both never sent before: /query caches results
// under the first, /core under the second, and distinct inputs can share
// a p-minimal form. The queries come in a fixed sequence, not from -seed:
// their costs span three orders of magnitude in two clusters, and a
// population drawn per seed moved the read p50 by a quarter from seed to
// seed. The seed still decides which instance and when each is read.
func (s *stream) freshQuery() string {
	for {
		q := randomQuery(s.fresh)
		if !s.ref.light(q) {
			continue
		}
		text := unionText(q)
		u := query.MustParseUnion(text)
		key, minKey := engine.CanonicalKey(u), engine.CanonicalKey(minimize.MinProv(u))
		if !s.seen[key] && !s.seen[minKey] {
			s.seen[key], s.seen[minKey] = true, true
			return text
		}
	}
}

// mustJSON encodes v, which is built here from strings and facts and so
// cannot fail to encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
