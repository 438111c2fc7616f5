// Command provmind is the provenance-minimization service: a long-lived
// HTTP server that hosts annotated database instances, evaluates UCQ≠
// queries with provenance concurrently, and serves core provenance through
// a cache of p-minimal query forms. With -data-dir it is durable: every
// acknowledged create/ingest/drop is write-ahead-logged, and a restart
// (even after SIGKILL) replays snapshot + WAL back into identical state.
//
// Usage:
//
//	provmind [-addr :8411] [-workers N] [-cache 1024]
//	         [-eval-parallel 0]
//	         [-result-cache-size 128] [-result-cache-bytes 33554432]
//	         [-batch 256] [-shards 8]
//	         [-data-dir DIR] [-wal-sync always|interval|none]
//	         [-wal-sync-interval 100ms]
//	         [-resident-budget-bytes N] [-cold-after 0]
//	         [-snapshot-backend fs|s3] [-cold-dir DIR]
//	         [-s3-endpoint URL] [-s3-bucket B]
//	         [-s3-prefix P] [-s3-region R] [-s3-access-key K] [-s3-secret-key S]
//	         [-node-name NAME -peers a=URL,b=URL,...] [-vnodes 64]
//	         [-probe-interval 2s]
//
// Ingest batching: each instance flushes writes as soon as its previous
// flush is done, taking every write that queued meanwhile, up to -batch
// facts per flush. Batches, and with -wal-sync always the writes that
// share one fsync, therefore grow with load, while a write to an idle
// instance is applied at once: nothing is held back to wait for company.
//
// Tiered storage: with a snapshot backend configured, idle instances are
// snapshotted into per-instance blobs, evicted from RAM when the resident
// byte budget (or the -cold-after idle deadline) demands it, and faulted
// back in transparently on next touch. -snapshot-backend fs stores blobs
// under <data-dir>/cold; s3 speaks the S3 REST dialect (MinIO-compatible,
// SigV4) against -s3-endpoint.
//
// Clustering: with -node-name and -peers this node joins a static cluster.
// Each member gets a consistent-hash slice of the instance id space; the
// provrouter binary fronts the cluster and proxies every request to the
// owning node. Clustered nodes share one cold tier (-cold-dir pointing at
// shared storage, or one s3 bucket): instance handoff between nodes moves
// a single blob, never rows. Clustered nodes additionally serve
// GET /gen/{id}, GET /topology, POST /admin/adopt and POST /admin/release.
//
// Endpoints (see internal/server): /instances, /query, /core, /prob,
// /trust, /deletion, /admin/snapshot, /admin/compact, /admin/evict,
// /admin/residency, /metrics, /healthz.
//
// Quick start:
//
//	provmind -addr :8411 -data-dir /var/lib/provmind &
//	curl -s -X POST localhost:8411/instances \
//	     -d '{"initial":"R r1 a a\nR r2 a b\nR r3 b a"}'
//	curl -s -X POST localhost:8411/query \
//	     -d '{"instance":"i1","query":"ans(x) :- R(x,y), R(y,x)"}'
//	curl -s "localhost:8411/core?instance=i1&q=ans(x)+:-+R(x,y),+R(y,x)"
//	curl -s -X POST localhost:8411/admin/compact
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"provmin/internal/cluster"
	"provmin/internal/engine"
	"provmin/internal/eval"
	"provmin/internal/metrics"
	"provmin/internal/persist"
	"provmin/internal/server"
	"provmin/internal/tier"
)

func main() {
	var (
		addr          = flag.String("addr", ":8411", "listen address")
		workers       = flag.Int("workers", 0, "evaluations that may run at once (0 = GOMAXPROCS)")
		evalParallel  = flag.Int("eval-parallel", 0, "parallel hash-join probe workers (0 = GOMAXPROCS, 1 = sequential)")
		cacheSize     = flag.Int("cache", 1024, "minimized-query LRU cache entries")
		resCacheSize  = flag.Int("result-cache-size", 128, "result-cache entries per instance (0 disables result caching)")
		resCacheBytes = flag.Int("result-cache-bytes", 32<<20, "approximate result-cache byte bound per instance (0 = entries-only bound)")
		batch         = flag.Int("batch", 256, "cap on the facts one ingest flush takes")
		shards        = flag.Int("shards", 8, "registry/WAL stripe count")
		dataDir       = flag.String("data-dir", "", "durable data directory (empty = in-memory only)")
		walSync       = flag.String("wal-sync", "always", "WAL durability: always, interval or none")
		syncInterval  = flag.Duration("wal-sync-interval", 100*time.Millisecond, "fsync period for -wal-sync interval")
		residentBytes = flag.Int64("resident-budget-bytes", 0, "approximate byte budget for resident instances (0 = unbounded; needs a snapshot backend)")
		coldAfter     = flag.Duration("cold-after", 0, "evict instances idle this long (0 = never; needs a snapshot backend)")
		snapBackend   = flag.String("snapshot-backend", "", "cold-tier blob store: fs or s3 (default fs under -data-dir when tiering flags are set)")
		s3Endpoint    = flag.String("s3-endpoint", "", "S3-compatible endpoint URL for -snapshot-backend s3")
		s3Bucket      = flag.String("s3-bucket", "provmind", "bucket for -snapshot-backend s3")
		s3Prefix      = flag.String("s3-prefix", "", "key prefix for -snapshot-backend s3")
		s3Region      = flag.String("s3-region", "", "signing region for -snapshot-backend s3")
		s3AccessKey   = flag.String("s3-access-key", "", "access key for -snapshot-backend s3 (empty = anonymous)")
		s3SecretKey   = flag.String("s3-secret-key", "", "secret key for -snapshot-backend s3")
		coldDir       = flag.String("cold-dir", "", "blob directory for -snapshot-backend fs (default <data-dir>/cold; clustered nodes point this at shared storage)")
		nodeName      = flag.String("node-name", "", "this node's name in -peers (enables clustering)")
		peers         = flag.String("peers", "", "cluster members as name=url,... (requires -node-name)")
		vnodes        = flag.Int("vnodes", 0, "virtual nodes per member on the hash ring (0 = default)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "peer health probing period (0 disables)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "provmind: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	reg := metrics.NewRegistry()

	// Cluster membership resolves first: the ring decides which cold blobs
	// this node adopts at boot and which instance misses it may heal.
	var topo *cluster.Topology
	if *peers != "" || *nodeName != "" {
		if *peers == "" || *nodeName == "" {
			log.Fatalf("provmind: clustering needs both -node-name and -peers")
		}
		nodes, err := cluster.ParsePeers(*peers)
		if err != nil {
			log.Fatalf("provmind: %v", err)
		}
		topo, err = cluster.NewTopology(cluster.TopologyConfig{
			Peers:         nodes,
			Self:          *nodeName,
			VNodes:        *vnodes,
			ProbeInterval: *probeInterval,
			Metrics:       reg,
		})
		if err != nil {
			log.Fatalf("provmind: %v", err)
		}
		defer topo.Close()
	}

	// Resolve the cold-tier backend before the WAL opens: replay needs it to
	// read fault-in records. Tiering flags without an explicit backend
	// default to fs (which needs -data-dir or -cold-dir for a home).
	backendName := *snapBackend
	if backendName == "" && (*residentBytes > 0 || *coldAfter > 0 || *coldDir != "") {
		backendName = "fs"
	}
	var backend tier.SnapshotBackend
	switch backendName {
	case "":
	case "fs":
		blobDir := *coldDir
		if blobDir == "" {
			if *dataDir == "" {
				log.Fatalf("provmind: -snapshot-backend fs needs -data-dir or -cold-dir for the blob directory")
			}
			blobDir = filepath.Join(*dataDir, "cold")
		}
		var err error
		backend, err = tier.NewFSBackend(blobDir)
		if err != nil {
			log.Fatalf("provmind: open cold blob dir: %v", err)
		}
	case "s3":
		if *s3Endpoint == "" {
			log.Fatalf("provmind: -snapshot-backend s3 needs -s3-endpoint")
		}
		var err error
		backend, err = tier.NewObjectBackend(tier.ObjectConfig{
			Endpoint:  *s3Endpoint,
			Bucket:    *s3Bucket,
			Prefix:    *s3Prefix,
			Region:    *s3Region,
			AccessKey: *s3AccessKey,
			SecretKey: *s3SecretKey,
		})
		if err != nil {
			log.Fatalf("provmind: configure s3 backend: %v", err)
		}
	default:
		log.Fatalf("provmind: unknown -snapshot-backend %q (want fs or s3)", backendName)
	}

	var logStore *persist.Log
	if *dataDir != "" {
		mode, err := persist.ParseSyncMode(*walSync)
		if err != nil {
			log.Fatalf("provmind: %v", err)
		}
		start := time.Now()
		logStore, err = persist.Open(persist.Options{
			Dir:          *dataDir,
			Shards:       *shards,
			Sync:         mode,
			SyncInterval: *syncInterval,
			Metrics:      reg,
			Cold:         backend,
		})
		if err != nil {
			log.Fatalf("provmind: open data dir: %v", err)
		}
		log.Printf("provmind: recovered %d instances from %s in %s (wal-sync=%s)",
			len(logStore.Recovered()), *dataDir, time.Since(start).Round(time.Millisecond), mode)
	}

	// The engine treats 0 as "use the default", so an explicit 0 on the
	// command line (= disable / unbound) maps to the negative sentinel.
	resSize, resBytes := *resCacheSize, int64(*resCacheBytes)
	if resSize == 0 {
		resSize = -1
	}
	if resBytes == 0 {
		resBytes = -1
	}
	cfg := engine.Config{
		Workers:             *workers,
		Eval:                eval.Options{Parallelism: *evalParallel},
		CacheSize:           *cacheSize,
		ResultCacheSize:     resSize,
		ResultCacheBytes:    resBytes,
		IngestBatchSize:     *batch,
		Shards:              *shards,
		Persist:             logStore,
		Metrics:             reg,
		Backend:             backend,
		ResidentBudgetBytes: *residentBytes,
		ColdAfter:           *coldAfter,
	}
	// Clustered lookup misses heal from the shared cold tier: the ring
	// owner adopts the blob outright (it may have been released by a
	// departing peer); the replica borrows a read-only copy so it can serve
	// failover reads without stealing ownership.
	if topo != nil && backend != nil {
		cfg.AdoptOnMiss = func(id string) engine.AdoptMode {
			switch {
			case topo.OwnsLocally(id):
				return engine.AdoptOwned
			case topo.ReplicaLocally(id):
				return engine.AdoptBorrowed
			default:
				return engine.AdoptNone
			}
		}
	}
	eng := engine.New(cfg)
	defer eng.Close()
	if backend != nil {
		// Register cold blobs (without loading them) and GC blobs of
		// dropped instances whose live deletion was lost to a crash. In a
		// cluster the cold tier is shared, so only blobs this node owns per
		// the ring are adopted (or GC'd) — the rest belong to peers.
		var owns func(string) bool
		if topo != nil {
			owns = topo.OwnsLocally
		}
		if err := eng.AdoptCold(context.Background(), owns); err != nil {
			log.Printf("provmind: adopt cold blobs: %v", err)
			eng.Close()
			os.Exit(1)
		}
		res := eng.Residency()
		log.Printf("provmind: tiered storage on %s (budget=%d bytes, cold-after=%s): %d resident, %d cold",
			backend, *residentBytes, *coldAfter, len(res.Resident), len(res.Cold))
	}

	// Listen before logging so the printed address is the bound one —
	// with ":0" the tests (and operators) can parse the real port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		// Not Fatalf: the engine (and with it the WAL) must close so
		// buffered acknowledged records reach disk.
		log.Printf("provmind: listen: %v", err)
		eng.Close()
		os.Exit(1)
	}
	handler := server.New(eng)
	if topo != nil {
		handler = server.NewClustered(eng, topo)
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if topo != nil {
		log.Printf("provmind: cluster node %s of %v (ring v%d)",
			topo.Self(), topo.Ring().Nodes(), topo.Ring().Version())
	}
	log.Printf("provmind listening on %s (workers=%d cache=%d batch=%d shards=%d durable=%t)",
		ln.Addr(), *workers, *cacheSize, *batch, *shards, logStore != nil)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Printf("provmind: %v", err)
		eng.Close() // flush + fsync the WAL before exiting
		os.Exit(1)
	case sig := <-sigc:
		log.Printf("provmind: %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("provmind: shutdown: %v", err)
		}
	}
}
