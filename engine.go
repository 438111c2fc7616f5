package provmin

import (
	"net/http"

	"provmin/internal/engine"
	"provmin/internal/metrics"
	"provmin/internal/server"
)

// This file exposes the service layer: the concurrent evaluation engine
// behind the provmind server, usable in-process. The one-shot functions of
// provmin.go evaluate a query and return; an Engine is long-lived — it
// hosts named instances behind read-write locks, bounds how many
// evaluations run at once, batches tuple ingest, and caches
// p-minimal query forms in an LRU so repeated core-provenance requests
// skip MinProv entirely.

type (
	// Engine is a long-lived, concurrency-safe provenance service core.
	Engine = engine.Engine
	// EngineConfig tunes a new Engine; zero values select defaults.
	EngineConfig = engine.Config
	// Fact is one annotated tuple for Engine ingest.
	Fact = engine.Fact
	// InstanceInfo describes one hosted instance.
	InstanceInfo = engine.InstanceInfo
	// CoreOut is the outcome of an Engine core-provenance request.
	CoreOut = engine.CoreOut
	// MetricsRegistry collects engine and server counters and histograms.
	MetricsRegistry = metrics.Registry
)

// NewEngine creates a service engine. Call Close when done.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// NewServerHandler wraps an engine in the provmind HTTP API (the handler
// cmd/provmind serves). Useful for embedding the service in another
// process or an httptest server.
func NewServerHandler(e *Engine) http.Handler { return server.New(e) }
