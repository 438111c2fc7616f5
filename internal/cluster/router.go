package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"provmin/internal/metrics"
)

// Headers shared by the router and the node-side server: the routing tier's
// wire contract rides on the single-node API instead of a new RPC layer.
const (
	// HeaderGeneration carries an instance's generation: nodes echo it on
	// /query and /core responses; the router stamps cache entries with it
	// and echoes it back to clients.
	HeaderGeneration = "X-Provmind-Generation"
	// HeaderRing carries the sender's ring version. Nodes and the router
	// reject a request whose ring version disagrees with theirs (409) so a
	// client routing on stale topology can never read or write the wrong
	// node silently.
	HeaderRing = "X-Provmind-Ring"
	// HeaderCache reports "hit" or "miss" for the router's result cache.
	HeaderCache = "X-Provmind-Cache"
	// HeaderNode names the node that served (or would serve) the request.
	HeaderNode = "X-Provmind-Node"
	// HeaderVia carries the id prefix of the router that forwarded a
	// request. Routers forward only to nodes, so a router that receives it
	// is listed in its own peers and answers 508 instead of looping.
	HeaderVia = "X-Provmind-Via"
)

// StaleRingError reports a ring-version mismatch between a request and the
// receiving process; HTTP layers map it to 409 Conflict, and clients
// recover by refreshing GET /topology.
type StaleRingError struct {
	Got     string
	Current uint64
}

func (e *StaleRingError) Error() string {
	return fmt.Sprintf("stale ring version %s (current %d); refresh via GET /topology", e.Got, e.Current)
}

// CheckRing validates a request's X-Provmind-Ring header, if present,
// against the local ring version. Shared by the router and the node-side
// server so both ends enforce the same staleness contract.
func CheckRing(r *http.Request, version uint64) error {
	h := r.Header.Get(HeaderRing)
	if h == "" {
		return nil
	}
	v, err := strconv.ParseUint(h, 10, 64)
	if err != nil || v != version {
		return &StaleRingError{Got: h, Current: version}
	}
	return nil
}

// routerError is an HTTP error originated by the router itself (as opposed
// to one relayed verbatim from a node).
type routerError struct {
	status int
	msg    string
}

func (e *routerError) Error() string { return e.msg }

// RouterConfig configures NewRouter. The cache bounds follow the engine
// Config sentinel convention: zero selects the default, a negative entry
// bound disables response caching, and a negative byte bound removes the
// byte bound (entry cap only).
type RouterConfig struct {
	Topology     *Topology
	CacheEntries int           // max cached responses (default 4096; negative disables)
	CacheBytes   int64         // max cached bytes (default 64 MiB; negative unbounds)
	DialTimeout  time.Duration // TCP connect timeout (default 1s)
	ProxyTimeout time.Duration // per-attempt request timeout (default 30s)
	Metrics      *metrics.Registry
}

// Router is the provmind cluster's routing tier: an http.Handler exposing
// the single-node API over a set of nodes. Every request that names an
// instance is proxied to the ring owner; reads retry once against the
// replica on connect failure or timeout; read responses are cached keyed
// by (instance, endpoint, canonical request) and served again only while
// the owning node's current generation matches the entry's stamp.
type Router struct {
	topo   *Topology
	cache  *routerCache
	client *http.Client
	mux    *http.ServeMux
	reg    *metrics.Registry

	idSeq    atomic.Uint64
	idPrefix string

	proxied     *metrics.Counter
	failovers   *metrics.Counter
	unavailable *metrics.Counter
}

// NewRouter builds the routing tier over a topology.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Topology == nil {
		return nil, errors.New("cluster: router needs a topology")
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = time.Second
	}
	if cfg.ProxyTimeout <= 0 {
		cfg.ProxyTimeout = 30 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	var pfx [4]byte
	if _, err := rand.Read(pfx[:]); err != nil {
		return nil, fmt.Errorf("cluster: seed id prefix: %w", err)
	}
	rt := &Router{
		topo:  cfg.Topology,
		cache: newRouterCache(cfg.CacheEntries, cfg.CacheBytes, cfg.Metrics),
		client: &http.Client{
			Timeout: cfg.ProxyTimeout,
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: cfg.DialTimeout}).DialContext,
				MaxIdleConnsPerHost: 32,
			},
		},
		mux:         http.NewServeMux(),
		reg:         cfg.Metrics,
		idPrefix:    "x" + hex.EncodeToString(pfx[:]),
		proxied:     cfg.Metrics.Counter("router_proxied_total"),
		failovers:   cfg.Metrics.Counter("router_failovers_total"),
		unavailable: cfg.Metrics.Counter("router_unavailable_total"),
	}
	rt.routes()
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

func (rt *Router) routes() {
	rt.route("POST /instances", rt.handleCreate)
	rt.route("GET /instances", rt.handleListInstances)
	rt.route("GET /instances/{id}", rt.handleGetInstance)
	rt.route("DELETE /instances/{id}", rt.handleDropInstance)
	rt.route("POST /instances/{id}/tuples", rt.handleIngest)
	rt.route("POST /query", rt.bodyRead("query", true))
	rt.route("POST /core", rt.bodyRead("core", true))
	rt.route("GET /core", rt.handleCoreGet)
	rt.route("POST /prob", rt.bodyRead("prob", false))
	rt.route("POST /trust", rt.bodyRead("trust", false))
	rt.route("POST /deletion", rt.bodyRead("deletion", false))
	rt.route("POST /admin/evict", rt.handleEvict)
	rt.route("POST /admin/rebalance", rt.handleRebalance)
	rt.route("POST /admin/snapshot", rt.fanoutPost("/admin/snapshot"))
	rt.route("POST /admin/compact", rt.fanoutPost("/admin/compact"))
	rt.route("GET /admin/residency", rt.handleResidency)
	rt.route("GET /topology", rt.handleTopology)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
}

// route wraps a handler with request metrics, the ring-version response
// header, the stale-ring request check and the forwarding-loop check.
func (rt *Router) route(pattern string, h func(w http.ResponseWriter, r *http.Request) error) {
	reqs := rt.reg.Counter("router_requests_total")
	errs := rt.reg.Counter("router_errors_total")
	lat := rt.reg.Histogram("router_request_seconds")
	version := rt.topo.Ring().Version()
	rt.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		w.Header().Set(HeaderRing, strconv.FormatUint(version, 10))
		err := CheckRing(r, version)
		if via := r.Header.Get(HeaderVia); via != "" {
			err = &routerError{http.StatusLoopDetected, "request already forwarded by router " + via + ": a router is listed among the nodes"}
		}
		if err == nil {
			err = h(w, r)
		}
		if err != nil {
			errs.Inc()
			rt.writeError(w, err)
		}
		lat.Observe(time.Since(start))
	})
}

func (rt *Router) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var re *routerError
	var sre *StaleRingError
	switch {
	case errors.As(err, &re):
		status = re.status
	case errors.As(err, &sre):
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// --- node I/O ---

// forward sends one request to a named node. Transport-level failures mark
// the node down (unless the caller's context was cancelled) and return an
// error; any HTTP response, success or not, marks it up.
func (rt *Router) forward(ctx context.Context, node, method, path string, body []byte) (*http.Response, error) {
	base, ok := rt.topo.URLOf(node)
	if !ok {
		return nil, fmt.Errorf("unknown node %q", node)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(HeaderRing, strconv.FormatUint(rt.topo.Ring().Version(), 10))
	req.Header.Set(HeaderVia, rt.idPrefix)
	resp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			rt.topo.MarkDown(node)
		}
		return nil, err
	}
	rt.topo.MarkUp(node)
	rt.proxied.Inc()
	return resp, nil
}

// fetchGen asks a node for its current generation of an instance: the
// cheap coherence check behind every router cache hit. ok is false when
// the node answered but does not hold the instance (or /gen errored);
// a non-nil error means the node was unreachable.
func (rt *Router) fetchGen(ctx context.Context, node, id string) (gen uint64, ok bool, err error) {
	resp, err := rt.forward(ctx, node, http.MethodGet, "/gen/"+url.PathEscape(id), nil)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	b, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if rerr != nil || resp.StatusCode != http.StatusOK {
		return 0, false, nil
	}
	var out struct {
		Generation uint64 `json:"generation"`
	}
	if json.Unmarshal(b, &out) != nil {
		return 0, false, nil
	}
	return out.Generation, true, nil
}

// readOrder returns the candidate nodes for a read of id: owner first,
// replica second — unless the owner is marked down and the replica isn't,
// in which case the replica leads so failover costs no timeout.
func (rt *Router) readOrder(id string) []string {
	owner, replica := rt.topo.OwnerReplica(id)
	if owner == replica {
		return []string{owner}
	}
	if !rt.topo.Healthy(owner) && rt.topo.Healthy(replica) {
		return []string{replica, owner}
	}
	return []string{owner, replica}
}

// relay writes an upstream (or cached) response to the client with the
// router's provenance headers.
func relay(w http.ResponseWriter, status int, ctype string, body []byte, node, cacheState, gen string) {
	if ctype == "" {
		ctype = "application/json"
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set(HeaderNode, node)
	w.Header().Set(HeaderCache, cacheState)
	if gen != "" {
		w.Header().Set(HeaderGeneration, gen)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// --- read path ---

// serveRead is the routed read path: try each candidate node in order; on
// the first reachable one, validate the cache against its current
// generation, serve the hit or proxy the request, and cache a 200 response
// stamped with the generation it was computed at. genInHeader selects the
// stamping protocol: /query and /core echo the evaluation generation in
// X-Provmind-Generation, so one round trip suffices; the other read
// endpoints bracket the proxy with two /gen checks and cache only when the
// generation held still.
func (rt *Router) serveRead(w http.ResponseWriter, r *http.Request, op, id, method, path string, body []byte, genInHeader bool) error {
	if id == "" {
		return &routerError{http.StatusBadRequest, "missing instance"}
	}
	key := cacheKey(id, op, string(body))
	var lastErr error
	for i, node := range rt.readOrder(id) {
		if i > 0 {
			rt.failovers.Inc()
		}
		// The generation round trip is only spent when it can pay for
		// itself: a possible cache hit, or a pre-proxy stamp for the
		// endpoints that don't echo generations.
		gen, genOK := uint64(0), false
		if rt.cache.contains(key) || !genInHeader {
			var err error
			gen, genOK, err = rt.fetchGen(r.Context(), node, id)
			if err != nil {
				lastErr = err
				continue
			}
			if genOK {
				if e, ok := rt.cache.get(key, gen); ok {
					relay(w, e.status, e.ctype, e.body, node, "hit", strconv.FormatUint(e.gen, 10))
					return nil
				}
			}
		}
		resp, err := rt.forward(r.Context(), node, method, path, body)
		if err != nil {
			lastErr = err
			continue
		}
		respBody, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if rerr != nil {
			lastErr = rerr
			continue
		}
		if resp.StatusCode == http.StatusOK {
			stamp, stampOK := uint64(0), false
			if genInHeader {
				if v, perr := strconv.ParseUint(resp.Header.Get(HeaderGeneration), 10, 64); perr == nil {
					stamp, stampOK = v, true
				}
			} else if genOK {
				// Bracketing check: the response is attributable to gen only
				// if the instance didn't advance while it was computed.
				g2, g2ok, gerr := rt.fetchGen(r.Context(), node, id)
				if gerr == nil && g2ok && g2 == gen {
					stamp, stampOK = gen, true
				}
			}
			if stampOK {
				rt.cache.put(&cacheEntry{
					key: key, id: id, gen: stamp,
					status: resp.StatusCode, body: respBody,
					ctype: resp.Header.Get("Content-Type"),
				})
			}
		}
		relay(w, resp.StatusCode, resp.Header.Get("Content-Type"), respBody, node, "miss", resp.Header.Get(HeaderGeneration))
		return nil
	}
	rt.unavailable.Inc()
	return &routerError{http.StatusServiceUnavailable,
		fmt.Sprintf("no node reachable for instance %q (last error: %v)", id, lastErr)}
}

// bodyRead builds the handler for a POST read endpoint whose JSON body
// names the instance: the body is read once, canonicalized (compact JSON)
// into the cache key, and forwarded verbatim.
func (rt *Router) bodyRead(op string, genInHeader bool) func(w http.ResponseWriter, r *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		body, id, err := readInstanceBody(r)
		if err != nil {
			return err
		}
		return rt.serveRead(w, r, op, id, http.MethodPost, "/"+op, body, genInHeader)
	}
}

// handleCoreGet normalizes GET /core?instance=&q=&direct= into the POST
// /core shape so both forms share cache entries.
func (rt *Router) handleCoreGet(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	body, err := json.Marshal(map[string]any{
		"instance": q.Get("instance"),
		"query":    q.Get("q"),
		"direct":   q.Get("direct") == "true",
	})
	if err != nil {
		return err
	}
	canon, id, err := canonicalBody(body)
	if err != nil {
		return err
	}
	return rt.serveRead(w, r, "core", id, http.MethodPost, "/core", canon, true)
}

// readInstanceBody reads and compacts a JSON request body and extracts the
// instance id it names.
func readInstanceBody(r *http.Request) (canon []byte, id string, err error) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		return nil, "", &routerError{http.StatusBadRequest, "read body: " + err.Error()}
	}
	return canonicalBody(raw)
}

func canonicalBody(raw []byte) (canon []byte, id string, err error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, "", &routerError{http.StatusBadRequest, "invalid JSON body: " + err.Error()}
	}
	var probe struct {
		Instance string `json:"instance"`
	}
	if err := json.Unmarshal(buf.Bytes(), &probe); err != nil {
		return nil, "", &routerError{http.StatusBadRequest, "invalid JSON body: " + err.Error()}
	}
	return buf.Bytes(), probe.Instance, nil
}

func (rt *Router) handleGetInstance(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	return rt.serveRead(w, r, "instance", id, http.MethodGet, "/instances/"+url.PathEscape(id), nil, false)
}

// --- write path ---

// serveWrite proxies a mutation to the ring owner — and only the owner:
// writes never fail over, because the replica's borrowed copies are
// read-only snapshots and accepting a write there would fork the instance.
func (rt *Router) serveWrite(w http.ResponseWriter, r *http.Request, id, method, path string, body []byte) error {
	if id == "" {
		return &routerError{http.StatusBadRequest, "missing instance"}
	}
	owner := rt.topo.Owner(id)
	resp, err := rt.forward(r.Context(), owner, method, path, body)
	if err != nil {
		rt.unavailable.Inc()
		return &routerError{http.StatusServiceUnavailable,
			fmt.Sprintf("owner %q unreachable for write to instance %q: %v", owner, id, err)}
	}
	defer resp.Body.Close()
	respBody, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if rerr != nil {
		return rerr
	}
	if resp.StatusCode < 300 {
		// The write landed: drop every cached read of this instance so the
		// next read revalidates instead of waiting for a stale-gen miss.
		rt.cache.invalidate(id)
	}
	relay(w, resp.StatusCode, resp.Header.Get("Content-Type"), respBody, owner, "miss", resp.Header.Get(HeaderGeneration))
	return nil
}

// createReq mirrors the node-side create payload, plus the explicit id the
// router assigns so placement is decided before the instance exists.
type createReq struct {
	ID      string          `json:"id,omitempty"`
	Initial string          `json:"initial,omitempty"`
	Facts   json.RawMessage `json:"facts,omitempty"`
}

func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) error {
	var req createReq
	if r.ContentLength != 0 {
		dec := json.NewDecoder(io.LimitReader(r.Body, 16<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return &routerError{http.StatusBadRequest, "invalid JSON body: " + err.Error()}
		}
	}
	if req.ID == "" {
		// Router-generated ids carry a random prefix so two routers (or a
		// restarted one) never collide with each other or with node-local
		// "i<n>" ids.
		req.ID = fmt.Sprintf("%s-%d", rt.idPrefix, rt.idSeq.Add(1))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return rt.serveWrite(w, r, req.ID, http.MethodPost, "/instances", body)
}

func (rt *Router) handleDropInstance(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	return rt.serveWrite(w, r, id, http.MethodDelete, "/instances/"+url.PathEscape(id), nil)
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	raw, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		return &routerError{http.StatusBadRequest, "read body: " + err.Error()}
	}
	return rt.serveWrite(w, r, id, http.MethodPost, "/instances/"+url.PathEscape(id)+"/tuples", raw)
}

func (rt *Router) handleEvict(w http.ResponseWriter, r *http.Request) error {
	raw, id, err := readInstanceBody(r)
	if err != nil {
		return err
	}
	return rt.serveWrite(w, r, id, http.MethodPost, "/admin/evict", raw)
}

// --- fan-out endpoints ---

// instListItem is the slice of node-side InstanceInfo the router needs.
type instListItem struct {
	ID       string `json:"id"`
	Borrowed bool   `json:"borrowed,omitempty"`
}

// listNode fetches one node's instance list, returning both the raw
// entries (for relaying) and the decoded ids.
func (rt *Router) listNode(ctx context.Context, node string) ([]json.RawMessage, []instListItem, error) {
	resp, err := rt.forward(ctx, node, http.MethodGet, "/instances", nil)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if rerr != nil {
		return nil, nil, rerr
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("node %q: /instances returned %d: %s", node, resp.StatusCode, bytes.TrimSpace(b))
	}
	var out struct {
		Instances []json.RawMessage `json:"instances"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, nil, fmt.Errorf("node %q: decode /instances: %w", node, err)
	}
	items := make([]instListItem, len(out.Instances))
	for i, raw := range out.Instances {
		if err := json.Unmarshal(raw, &items[i]); err != nil {
			return nil, nil, fmt.Errorf("node %q: decode instance entry: %w", node, err)
		}
	}
	return out.Instances, items, nil
}

// handleListInstances merges every node's instance list. Borrowed copies
// (replica-side read snapshots) are filtered out so an instance appears
// once, under its owner.
func (rt *Router) handleListInstances(w http.ResponseWriter, r *http.Request) error {
	merged := []json.RawMessage{}
	seen := map[string]bool{}
	nodeErrs := map[string]string{}
	for _, n := range rt.topo.Nodes() {
		raws, items, err := rt.listNode(r.Context(), n.Name)
		if err != nil {
			nodeErrs[n.Name] = err.Error()
			continue
		}
		for i, item := range items {
			if item.Borrowed || seen[item.ID] {
				continue
			}
			seen[item.ID] = true
			merged = append(merged, raws[i])
		}
	}
	out := map[string]any{"instances": merged}
	if len(nodeErrs) > 0 {
		out["node_errors"] = nodeErrs
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// handleResidency fans GET /admin/residency out to every node so one call
// shows cluster-wide placement — the observability half of rebalance.
func (rt *Router) handleResidency(w http.ResponseWriter, r *http.Request) error {
	out := map[string]any{}
	for _, n := range rt.topo.Nodes() {
		resp, err := rt.forward(r.Context(), n.Name, http.MethodGet, "/admin/residency", nil)
		if err != nil {
			out[n.Name] = map[string]string{"error": err.Error()}
			continue
		}
		b, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			out[n.Name] = map[string]string{"error": fmt.Sprintf("status %d", resp.StatusCode)}
			continue
		}
		out[n.Name] = json.RawMessage(b)
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// fanoutPost builds a handler that POSTs a node-local admin action
// (snapshot, compact) to every node and collects per-node results.
func (rt *Router) fanoutPost(path string) func(w http.ResponseWriter, r *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		out := map[string]any{}
		for _, n := range rt.topo.Nodes() {
			resp, err := rt.forward(r.Context(), n.Name, http.MethodPost, path, nil)
			if err != nil {
				out[n.Name] = map[string]string{"error": err.Error()}
				continue
			}
			b, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
			resp.Body.Close()
			if rerr != nil {
				out[n.Name] = map[string]string{"error": rerr.Error()}
				continue
			}
			out[n.Name] = json.RawMessage(b)
		}
		writeJSON(w, http.StatusOK, out)
		return nil
	}
}

// --- rebalance ---

// postAdmin POSTs {"instance": id} to a node admin endpoint and fails on
// any non-2xx answer.
func (rt *Router) postAdmin(ctx context.Context, node, path, id string) error {
	body, _ := json.Marshal(map[string]string{"instance": id})
	resp, err := rt.forward(ctx, node, http.MethodPost, path, body)
	if err != nil {
		return fmt.Errorf("node %q: %s: %w", node, path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode >= 300 {
		return fmt.Errorf("node %q: %s returned %d: %s", node, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return nil
}

// handleRebalance moves every misplaced instance to its ring owner by blob
// handoff: the holder releases it (snapshot to the shared cold backend +
// forget, never a row-level export), then the owner adopts the blob cold;
// the next read faults it in. Borrowed replica copies are simply released.
// Errors on individual instances are collected, not fatal — a rebalance
// that moves 9 of 10 instances reports the one failure and remains safe to
// re-run.
func (rt *Router) handleRebalance(w http.ResponseWriter, r *http.Request) error {
	type move struct {
		Instance string `json:"instance"`
		From     string `json:"from"`
		To       string `json:"to"`
	}
	moves := []move{}
	released := 0
	var errs []string
	for _, n := range rt.topo.Nodes() {
		if !rt.topo.Healthy(n.Name) {
			errs = append(errs, fmt.Sprintf("node %q marked down, skipped", n.Name))
			continue
		}
		_, items, err := rt.listNode(r.Context(), n.Name)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		for _, item := range items {
			owner := rt.topo.Owner(item.ID)
			switch {
			case item.Borrowed:
				if err := rt.postAdmin(r.Context(), n.Name, "/admin/release", item.ID); err != nil {
					errs = append(errs, err.Error())
					continue
				}
				rt.cache.invalidate(item.ID)
				released++
			case owner != n.Name:
				if err := rt.postAdmin(r.Context(), n.Name, "/admin/release", item.ID); err != nil {
					errs = append(errs, err.Error())
					continue
				}
				if err := rt.postAdmin(r.Context(), owner, "/admin/adopt", item.ID); err != nil {
					errs = append(errs, fmt.Sprintf("instance %q released by %q but not adopted by %q: %v", item.ID, n.Name, owner, err))
					continue
				}
				rt.cache.invalidate(item.ID)
				moves = append(moves, move{Instance: item.ID, From: n.Name, To: owner})
			}
		}
	}
	rt.reg.Counter("router_rebalance_moves_total").Add(int64(len(moves)))
	out := map[string]any{
		"ring_version":      rt.topo.Ring().Version(),
		"moved":             moves,
		"released_borrowed": released,
	}
	if len(errs) > 0 {
		out["errors"] = errs
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// --- router-local endpoints ---

func (rt *Router) handleTopology(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, rt.topo.Info())
	return nil
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, rt.reg.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = rt.reg.WritePrometheus(w)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	info := rt.topo.Info()
	down := 0
	for _, n := range info.Nodes {
		if !n.Healthy {
			down++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"role":         "router",
		"ring_version": info.RingVersion,
		"nodes":        len(info.Nodes),
		"nodes_down":   down,
	})
}
