// In-process 3-node cluster end-to-end tests: three clustered provmind
// nodes sharing one cold blob tier, fronted by a Router — the same wiring
// cmd/provmind and cmd/provrouter perform, minus the processes. The
// package is cluster_test (external) because the harness imports
// internal/server, which itself imports internal/cluster.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"provmin/internal/cluster"
	"provmin/internal/engine"
	"provmin/internal/metrics"
	"provmin/internal/persist"
	"provmin/internal/server"
	"provmin/internal/tier"
)

const (
	seedFacts = "R r1 a a\nR r2 a b\nR r3 b a"
	testQuery = "ans(x) :- R(x,y), R(y,x)"
)

// testNode is one in-process cluster member: a durable, tiered engine over
// the shared cold backend behind a clustered HTTP server on a real TCP
// port (the router dials it like any remote peer).
type testNode struct {
	name string
	addr string
	eng  *engine.Engine
	topo *cluster.Topology
	srv  *http.Server
}

// kill closes the node's HTTP side abruptly — connections refused, engine
// left running — modeling a network partition / kill from the router's
// point of view.
func (n *testNode) kill() { _ = n.srv.Close() }

// testCluster is the 3-node harness plus the router in front of it.
type testCluster struct {
	t         *testing.T
	backend   tier.SnapshotBackend
	peers     []cluster.Node
	nodes     map[string]*testNode
	ring      *cluster.Ring
	router    *httptest.Server
	routerReg *metrics.Registry
}

func newTestCluster(t *testing.T) *testCluster {
	t.Helper()
	backend, err := tier.NewFSBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{t: t, backend: backend, nodes: map[string]*testNode{}}

	names := []string{"a", "b", "c"}
	lns := make(map[string]net.Listener, len(names))
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[name] = ln
		tc.peers = append(tc.peers, cluster.Node{Name: name, URL: "http://" + ln.Addr().String()})
	}
	for _, name := range names {
		tc.startNode(name, t.TempDir(), lns[name])
	}

	reg := metrics.NewRegistry()
	topo, err := cluster.NewTopology(cluster.TopologyConfig{Peers: tc.peers, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	tc.ring = topo.Ring()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Topology:    topo,
		DialTimeout: 200 * time.Millisecond,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.routerReg = reg
	tc.router = httptest.NewServer(rt)
	t.Cleanup(tc.router.Close)
	return tc
}

// startNode boots one member exactly as cmd/provmind wires it: durable
// engine, shared backend, ring-filtered AdoptCold, adopt-or-borrow on
// lookup miss, clustered server.
func (tc *testCluster) startNode(name, dataDir string, ln net.Listener) {
	t := tc.t
	t.Helper()
	reg := metrics.NewRegistry()
	l, err := persist.Open(persist.Options{Dir: dataDir, Shards: 4, Cold: tc.backend, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cluster.NewTopology(cluster.TopologyConfig{Peers: tc.peers, Self: name, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{
		Workers: 2, CacheSize: 16, IngestBatchSize: 1,
		Persist: l, Backend: tc.backend, JanitorInterval: -1, Metrics: reg,
		AdoptOnMiss: func(id string) engine.AdoptMode {
			switch {
			case topo.OwnsLocally(id):
				return engine.AdoptOwned
			case topo.ReplicaLocally(id):
				return engine.AdoptBorrowed
			default:
				return engine.AdoptNone
			}
		},
	})
	if err := eng.AdoptCold(context.Background(), topo.OwnsLocally); err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: server.NewClustered(eng, topo)}
	go srv.Serve(ln) //nolint:errcheck // returns on kill/cleanup
	n := &testNode{name: name, addr: ln.Addr().String(), eng: eng, topo: topo, srv: srv}
	tc.nodes[name] = n
	t.Cleanup(func() {
		n.kill()
		topo.Close()
		eng.Close()
	})
}

// pickID returns a fresh instance id owned by the given node.
func (tc *testCluster) pickID(owner string, taken map[string]bool) string {
	for i := 0; ; i++ {
		id := fmt.Sprintf("t%d", i)
		if taken[id] {
			continue
		}
		if tc.ring.Owner(id) == owner {
			taken[id] = true
			return id
		}
	}
}

// --- HTTP helpers ---

func doJSON(t *testing.T, method, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func mustStatus(t *testing.T, resp *http.Response, body []byte, want int) {
	t.Helper()
	if resp.StatusCode != want {
		t.Fatalf("%s: status %d, want %d (body: %s)", resp.Request.URL, resp.StatusCode, want, bytes.TrimSpace(body))
	}
}

// tryNormalize strips the volatile cache-observability fields (cache_hit,
// result_cache_hit, maintained_hit — whether a response was served warm,
// or warm via incremental maintenance, is not part of the answer) and
// re-marshals with sorted keys, so two answers are comparable
// byte-for-byte regardless of which caches were warm.
func tryNormalize(body []byte) (string, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return "", fmt.Errorf("normalize %q: %w", body, err)
	}
	delete(m, "cache_hit")
	delete(m, "result_cache_hit")
	delete(m, "maintained_hit")
	out, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

func normalize(t *testing.T, body []byte) string {
	t.Helper()
	s, err := tryNormalize(body)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ingestBody(rel, tag string, values ...string) map[string]any {
	return map[string]any{"facts": []map[string]any{{"rel": rel, "tag": tag, "values": values}}}
}

// singleNodeRef boots an unclustered single-node server — the acceptance
// reference: the routed cluster must answer byte-identically to it.
func singleNodeRef(t *testing.T) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2, CacheSize: 16, IngestBatchSize: 1})
	t.Cleanup(eng.Close)
	ref := httptest.NewServer(server.New(eng))
	t.Cleanup(ref.Close)
	return ref
}

// --- tests ---

// TestClusterRoutedCoreMatchesSingleNode runs one workload twice — through
// the 3-node routed cluster and against a single unclustered node — and
// requires identical answers for every instance, with the instances
// actually spread over all three owners. Repeated reads must hit the
// router cache, and a write must invalidate it coherently.
func TestClusterRoutedCoreMatchesSingleNode(t *testing.T) {
	tc := newTestCluster(t)
	ref := singleNodeRef(t)

	// Two instances per node so every owner serves real traffic.
	taken := map[string]bool{}
	var ids []string
	for _, owner := range []string{"a", "b", "c"} {
		for range 2 {
			ids = append(ids, tc.pickID(owner, taken))
		}
	}
	for _, base := range []string{tc.router.URL, ref.URL} {
		for _, id := range ids {
			resp, body := doJSON(t, http.MethodPost, base+"/instances",
				map[string]any{"id": id, "initial": seedFacts}, nil)
			mustStatus(t, resp, body, http.StatusCreated)
			resp, body = doJSON(t, http.MethodPost, base+"/instances/"+id+"/tuples",
				ingestBody("R", "r4-"+id, "b", "b"), nil)
			mustStatus(t, resp, body, http.StatusOK)
		}
	}

	coreReq := func(id string) map[string]any {
		return map[string]any{"instance": id, "query": testQuery}
	}
	for _, id := range ids {
		resp, routed := doJSON(t, http.MethodPost, tc.router.URL+"/core", coreReq(id), nil)
		mustStatus(t, resp, routed, http.StatusOK)
		if node := resp.Header.Get(cluster.HeaderNode); node != tc.ring.Owner(id) {
			t.Errorf("instance %s served by %q, ring owner is %q", id, node, tc.ring.Owner(id))
		}
		respRef, direct := doJSON(t, http.MethodPost, ref.URL+"/core", coreReq(id), nil)
		mustStatus(t, respRef, direct, http.StatusOK)
		if got, want := normalize(t, routed), normalize(t, direct); got != want {
			t.Errorf("routed core for %s:\n%s\nwant (single-node):\n%s", id, got, want)
		}
	}

	// Second round of identical reads: the router cache must serve them.
	hitsBefore := tc.routerReg.Counter("router_cache_hits_total").Value()
	for _, id := range ids {
		resp, body := doJSON(t, http.MethodPost, tc.router.URL+"/core", coreReq(id), nil)
		mustStatus(t, resp, body, http.StatusOK)
		if resp.Header.Get(cluster.HeaderCache) != "hit" {
			t.Errorf("repeat core read for %s: cache %q, want hit", id, resp.Header.Get(cluster.HeaderCache))
		}
	}
	if hits := tc.routerReg.Counter("router_cache_hits_total").Value(); hits <= hitsBefore {
		t.Fatalf("router cache hit rate not > 0: hits %d -> %d", hitsBefore, hits)
	}

	// A routed write invalidates: the next read is a miss that reflects the
	// new fact, still matching the single-node reference.
	id := ids[0]
	for _, base := range []string{tc.router.URL, ref.URL} {
		resp, body := doJSON(t, http.MethodPost, base+"/instances/"+id+"/tuples",
			ingestBody("R", "r5", "c", "c"), nil)
		mustStatus(t, resp, body, http.StatusOK)
	}
	resp, routed := doJSON(t, http.MethodPost, tc.router.URL+"/core", coreReq(id), nil)
	mustStatus(t, resp, routed, http.StatusOK)
	if resp.Header.Get(cluster.HeaderCache) != "miss" {
		t.Errorf("read after write: cache %q, want miss", resp.Header.Get(cluster.HeaderCache))
	}
	respRef, direct := doJSON(t, http.MethodPost, ref.URL+"/core", coreReq(id), nil)
	mustStatus(t, respRef, direct, http.StatusOK)
	if got, want := normalize(t, routed), normalize(t, direct); got != want {
		t.Fatalf("core after routed write:\n%s\nwant:\n%s", got, want)
	}
}

// TestClusterFailoverReplicaServes kills an instance's owner and requires
// the router to serve reads from the ring replica (which borrows the
// instance's cold blob read-only), byte-identical to the pre-kill answer;
// with the replica also dead, reads must fail fast with a JSON 503.
func TestClusterFailoverReplicaServes(t *testing.T) {
	tc := newTestCluster(t)
	id := tc.pickID("a", map[string]bool{})
	owner, replica := tc.ring.OwnerReplica(id)

	resp, body := doJSON(t, http.MethodPost, tc.router.URL+"/instances",
		map[string]any{"id": id, "initial": seedFacts}, nil)
	mustStatus(t, resp, body, http.StatusCreated)
	// Evict through the router: the owner snapshots the instance into the
	// shared cold tier — the state a replica can serve after the owner dies.
	resp, body = doJSON(t, http.MethodPost, tc.router.URL+"/admin/evict",
		map[string]any{"instance": id}, nil)
	mustStatus(t, resp, body, http.StatusOK)

	coreReq := map[string]any{"instance": id, "query": testQuery}
	resp, before := doJSON(t, http.MethodPost, tc.router.URL+"/core", coreReq, nil)
	mustStatus(t, resp, before, http.StatusOK)
	if node := resp.Header.Get(cluster.HeaderNode); node != owner {
		t.Fatalf("pre-kill core served by %q, want owner %q", node, owner)
	}

	tc.nodes[owner].kill()
	// The same read again: the owner is unreachable, so whether the router
	// validates its cached copy or re-proxies, the replica (serving the
	// borrowed cold blob) must answer — byte-identically.
	failovers := tc.routerReg.Counter("router_failovers_total").Value()
	resp, after := doJSON(t, http.MethodPost, tc.router.URL+"/core", coreReq, nil)
	mustStatus(t, resp, after, http.StatusOK)
	if node := resp.Header.Get(cluster.HeaderNode); node != replica {
		t.Fatalf("post-kill core served by %q, want replica %q", node, replica)
	}
	if got := tc.routerReg.Counter("router_failovers_total").Value(); got <= failovers {
		t.Errorf("router_failovers_total did not advance (%d -> %d)", failovers, got)
	}
	if got, want := normalize(t, after), normalize(t, before); got != want {
		t.Fatalf("replica-served core differs from owner's:\n%s\nwant:\n%s", got, want)
	}
	// A query the router has never cached must also proxy through to the
	// replica, not just validate old bytes.
	resp, fresh := doJSON(t, http.MethodPost, tc.router.URL+"/query",
		map[string]any{"instance": id, "query": "ans(x,y) :- R(x,y)"}, nil)
	mustStatus(t, resp, fresh, http.StatusOK)
	if node := resp.Header.Get(cluster.HeaderNode); node != replica {
		t.Fatalf("post-kill fresh query served by %q, want replica %q", node, replica)
	}

	// Replica down too: owner and replica both unreachable is a fast JSON
	// 503, regardless of the third (healthy but non-replica) node.
	tc.nodes[replica].kill()
	resp, body = doJSON(t, http.MethodPost, tc.router.URL+"/query",
		map[string]any{"instance": id, "query": testQuery}, nil)
	mustStatus(t, resp, body, http.StatusServiceUnavailable)
	var errBody struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &errBody); err != nil || errBody.Error == "" {
		t.Fatalf("503 body is not a JSON error object: %s (err %v)", body, err)
	}
}

// TestClusterStaleRing covers the stale-topology contract on both tiers: a
// request stamped with a foreign ring version is rejected with 409 by the
// router and by every node, and GET /topology serves the version (plus
// membership) a client needs to recover.
func TestClusterStaleRing(t *testing.T) {
	tc := newTestCluster(t)
	stale := map[string]string{cluster.HeaderRing: "12345"}

	resp, body := doJSON(t, http.MethodGet, tc.router.URL+"/instances", nil, stale)
	mustStatus(t, resp, body, http.StatusConflict)
	var errBody struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &errBody); err != nil || errBody.Error == "" {
		t.Fatalf("router 409 body is not a JSON error object: %s", body)
	}

	node := tc.nodes["a"]
	resp, body = doJSON(t, http.MethodGet, "http://"+node.addr+"/instances", nil, stale)
	mustStatus(t, resp, body, http.StatusConflict)

	// Recovery path: /topology names the current ring version, and a
	// request stamped with it passes on both tiers.
	resp, body = doJSON(t, http.MethodGet, tc.router.URL+"/topology", nil, nil)
	mustStatus(t, resp, body, http.StatusOK)
	var topo cluster.TopologyInfo
	if err := json.Unmarshal(body, &topo); err != nil {
		t.Fatal(err)
	}
	if topo.RingVersion != tc.ring.Version() || len(topo.Nodes) != 3 {
		t.Fatalf("router topology = %+v, want ring v%d over 3 nodes", topo, tc.ring.Version())
	}
	fresh := map[string]string{cluster.HeaderRing: strconv.FormatUint(topo.RingVersion, 10)}
	resp, body = doJSON(t, http.MethodGet, tc.router.URL+"/instances", nil, fresh)
	mustStatus(t, resp, body, http.StatusOK)
	resp, body = doJSON(t, http.MethodGet, "http://"+node.addr+"/instances", nil, fresh)
	mustStatus(t, resp, body, http.StatusOK)
}

// TestClusterGenerationCoherence is the differential form of the cache's
// core guarantee: after every acknowledged routed write, a routed read may
// be a hit or a miss but must never serve a result whose generation trails
// the owner's — equivalently, it must always equal the single-node answer
// for the same prefix of writes.
func TestClusterGenerationCoherence(t *testing.T) {
	tc := newTestCluster(t)
	ref := singleNodeRef(t)
	id := tc.pickID("b", map[string]bool{})
	for _, base := range []string{tc.router.URL, ref.URL} {
		resp, body := doJSON(t, http.MethodPost, base+"/instances",
			map[string]any{"id": id, "initial": seedFacts}, nil)
		mustStatus(t, resp, body, http.StatusCreated)
	}

	coreReq := map[string]any{"instance": id, "query": testQuery}
	var lastGen uint64
	for i := range 12 {
		// Warm the router cache at the current generation, then write: the
		// stale entry must never be served for the post-write read.
		resp, body := doJSON(t, http.MethodPost, tc.router.URL+"/core", coreReq, nil)
		mustStatus(t, resp, body, http.StatusOK)
		tag := fmt.Sprintf("g%d", i)
		val := fmt.Sprintf("v%d", i)
		for _, base := range []string{tc.router.URL, ref.URL} {
			resp, body := doJSON(t, http.MethodPost, base+"/instances/"+id+"/tuples",
				ingestBody("R", tag, val, val), nil)
			mustStatus(t, resp, body, http.StatusOK)
		}
		resp, routed := doJSON(t, http.MethodPost, tc.router.URL+"/core", coreReq, nil)
		mustStatus(t, resp, routed, http.StatusOK)
		gen, err := strconv.ParseUint(resp.Header.Get(cluster.HeaderGeneration), 10, 64)
		if err != nil {
			t.Fatalf("round %d: bad generation header %q", i, resp.Header.Get(cluster.HeaderGeneration))
		}
		if gen <= lastGen {
			t.Fatalf("round %d: generation %d does not advance past %d — stale result served", i, gen, lastGen)
		}
		lastGen = gen
		respRef, direct := doJSON(t, http.MethodPost, ref.URL+"/core", coreReq, nil)
		mustStatus(t, respRef, direct, http.StatusOK)
		if got, want := normalize(t, routed), normalize(t, direct); got != want {
			t.Fatalf("round %d: routed core trails the owner:\n%s\nwant:\n%s", i, got, want)
		}
	}
	if tc.routerReg.Counter("router_cache_hits_total").Value() == 0 {
		t.Error("workload produced no router cache hits; coherence was never actually exercised")
	}
}

// TestClusterGenerationCoherenceConcurrent races routed readers against a
// routed writer: every reader's observed generation sequence must be
// non-decreasing, and any two responses claiming the same generation must
// be identical — a cached result served past its generation would break
// one of the two.
func TestClusterGenerationCoherenceConcurrent(t *testing.T) {
	tc := newTestCluster(t)
	id := tc.pickID("c", map[string]bool{})
	resp, body := doJSON(t, http.MethodPost, tc.router.URL+"/instances",
		map[string]any{"id": id, "initial": seedFacts}, nil)
	mustStatus(t, resp, body, http.StatusCreated)

	const writes = 30
	var (
		mu    sync.Mutex
		byGen = map[uint64]string{}
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for n := 0; ; n++ {
				select {
				case <-done:
					if n > 0 {
						return
					}
				default:
				}
				resp, routed := doJSON(t, http.MethodPost, tc.router.URL+"/core",
					map[string]any{"instance": id, "query": testQuery}, nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader %d: status %d: %s", r, resp.StatusCode, routed)
					return
				}
				gen, err := strconv.ParseUint(resp.Header.Get(cluster.HeaderGeneration), 10, 64)
				if err != nil {
					t.Errorf("reader %d: bad generation header %q", r, resp.Header.Get(cluster.HeaderGeneration))
					return
				}
				if gen < last {
					t.Errorf("reader %d: generation went backwards %d -> %d (stale cache serve)", r, last, gen)
					return
				}
				last = gen
				norm, err := tryNormalize(routed)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if prev, ok := byGen[gen]; ok && prev != norm {
					mu.Unlock()
					t.Errorf("two different results at generation %d:\n%s\nvs\n%s", gen, prev, norm)
					return
				}
				byGen[gen] = norm
				mu.Unlock()
			}
		}()
	}
	for i := range writes {
		resp, body := doJSON(t, http.MethodPost, tc.router.URL+"/instances/"+id+"/tuples",
			ingestBody("R", fmt.Sprintf("c%d", i), fmt.Sprintf("w%d", i), fmt.Sprintf("w%d", i)), nil)
		mustStatus(t, resp, body, http.StatusOK)
	}
	close(done)
	wg.Wait()
}

// TestClusterRebalance plants an instance on the wrong node, then requires
// POST /admin/rebalance to move it to its ring owner by cold-blob handoff:
// the donor forgets it, the owner adopts it cold (visible in /admin/
// residency on both), and the routed answer is unchanged — all without any
// row-level re-ingest (the owner's ingest path is never exercised).
func TestClusterRebalance(t *testing.T) {
	tc := newTestCluster(t)
	id := tc.pickID("a", map[string]bool{})
	wrong := "b" // not the owner and (vnode permutations aside) a valid holder

	// Plant directly on the wrong node, bypassing the router's placement.
	resp, body := doJSON(t, http.MethodPost, "http://"+tc.nodes[wrong].addr+"/instances",
		map[string]any{"id": id, "initial": seedFacts}, nil)
	mustStatus(t, resp, body, http.StatusCreated)
	resp, before := doJSON(t, http.MethodPost, "http://"+tc.nodes[wrong].addr+"/core",
		map[string]any{"instance": id, "query": testQuery}, nil)
	mustStatus(t, resp, before, http.StatusOK)

	resp, body = doJSON(t, http.MethodPost, tc.router.URL+"/admin/rebalance", nil, nil)
	mustStatus(t, resp, body, http.StatusOK)
	var reb struct {
		Moved []struct {
			Instance, From, To string
		} `json:"moved"`
		Errors []string `json:"errors"`
	}
	if err := json.Unmarshal(body, &reb); err != nil {
		t.Fatal(err)
	}
	if len(reb.Errors) > 0 {
		t.Fatalf("rebalance errors: %v", reb.Errors)
	}
	if len(reb.Moved) != 1 || reb.Moved[0].Instance != id || reb.Moved[0].From != wrong || reb.Moved[0].To != "a" {
		t.Fatalf("rebalance moved = %+v, want [%s: %s -> a]", reb.Moved, id, wrong)
	}

	// Both engines' residency must reflect the move: gone from the donor,
	// cold on the owner (adopted as a blob, not re-ingested).
	if res := tc.nodes[wrong].eng.Residency(); len(res.Cold) != 0 || len(res.Resident) != 0 {
		t.Fatalf("donor still holds state after rebalance: %+v", res)
	}
	res := tc.nodes["a"].eng.Residency()
	if len(res.Cold) != 1 || res.Cold[0] != id || len(res.Resident) != 0 {
		t.Fatalf("owner residency after rebalance = %+v, want exactly [%s] cold", res, id)
	}

	// The routed read faults the blob in on the owner and answers as before.
	resp, after := doJSON(t, http.MethodPost, tc.router.URL+"/core",
		map[string]any{"instance": id, "query": testQuery}, nil)
	mustStatus(t, resp, after, http.StatusOK)
	if node := resp.Header.Get(cluster.HeaderNode); node != "a" {
		t.Fatalf("post-rebalance core served by %q, want owner a", node)
	}
	if got, want := normalize(t, after), normalize(t, before); got != want {
		t.Fatalf("core changed across rebalance:\n%s\nwant:\n%s", got, want)
	}
}
