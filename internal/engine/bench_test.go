package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"provmin/internal/query"
)

func benchEngine(b *testing.B, tuples int) (*Engine, string) {
	b.Helper()
	// Result caching off: these benchmarks measure the evaluation paths
	// (cold MinProv, min-cache-hit eval, parallel eval, ingest); with the
	// default cache every repeated query degenerates into a cache probe.
	// BenchmarkCoreResultCache below measures the cache itself.
	e := New(Config{Workers: 4, CacheSize: 64, ResultCacheSize: -1})
	b.Cleanup(e.Close)
	info, err := e.CreateInstance("")
	if err != nil {
		b.Fatal(err)
	}
	facts := make([]Fact, 0, tuples)
	for i := 0; i < tuples; i++ {
		facts = append(facts, Fact{
			Rel: "R", Tag: fmt.Sprintf("r%d", i),
			Values: []string{fmt.Sprintf("v%d", i%16), fmt.Sprintf("v%d", (i+1)%16)},
		})
	}
	if err := e.Ingest(info.ID, facts); err != nil {
		b.Fatal(err)
	}
	return e, info.ID
}

// benchQuery has a redundant atom, so MinProv has real work to skip on a
// cache hit.
const benchQuery = "ans(x) :- R(x,y), R(y,z), R(x,w)"

// BenchmarkCoreCold measures core provenance with the minimization cache
// defeated (a fresh variable renaming each iteration takes a new slot).
func BenchmarkCoreCold(b *testing.B) {
	e, id := benchEngine(b, 64)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("ans(x%d) :- R(x%d,y%d), R(y%d,z%d), R(x%d,w%d)", i, i, i, i, i, i, i)
		u := query.MustParseUnion(q)
		if _, err := e.Core(ctx, id, u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreCached measures the steady-state service hot path: repeated
// core requests for one query, MinProv amortized away by the LRU.
func BenchmarkCoreCached(b *testing.B) {
	e, id := benchEngine(b, 64)
	ctx := context.Background()
	u := query.MustParseUnion(benchQuery)
	if _, err := e.Core(ctx, id, u); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Core(ctx, id, u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreResultCache is the acceptance pair for the result cache:
// repeated /core at a fixed generation served from the generation-stamped
// result cache ("hit") against the same request with result caching
// disabled ("cold" — minimization still cached, so the delta is purely the
// skipped evaluation). The acceptance bar is hit ≥ 10x faster than cold.
func BenchmarkCoreResultCache(b *testing.B) {
	for _, cfg := range []struct {
		name      string
		cacheSize int
	}{
		{"hit", 0},   // default: result cache on
		{"cold", -1}, // result cache disabled
	} {
		b.Run(cfg.name, func(b *testing.B) {
			e := New(Config{Workers: 4, CacheSize: 64, ResultCacheSize: cfg.cacheSize})
			b.Cleanup(e.Close)
			info, err := e.CreateInstance("")
			if err != nil {
				b.Fatal(err)
			}
			facts := make([]Fact, 0, 512)
			for i := 0; i < 512; i++ {
				facts = append(facts, Fact{
					Rel: "R", Tag: fmt.Sprintf("r%d", i),
					Values: []string{fmt.Sprintf("v%d", i%24), fmt.Sprintf("v%d", (i+1)%24)},
				})
			}
			if err := e.Ingest(info.ID, facts); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			u := query.MustParseUnion(benchQuery)
			if _, err := e.Core(ctx, info.ID, u); err != nil {
				b.Fatal(err) // warm both caches
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Core(ctx, info.ID, u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryParallel measures concurrent read throughput on one
// instance through the worker pool.
func BenchmarkQueryParallel(b *testing.B) {
	e, id := benchEngine(b, 64)
	ctx := context.Background()
	u := query.MustParseUnion("ans(x,y) :- R(x,y)")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Query(ctx, id, u); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIngestBatched measures batched write throughput (facts/op) with
// concurrent writers sharing flushes.
func BenchmarkIngestBatched(b *testing.B) {
	e, id := benchEngine(b, 0)
	var n atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v := fmt.Sprintf("b%d", n.Add(1))
			if err := e.Ingest(id, []Fact{{Rel: "W", Tag: "t" + v, Values: []string{v}}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRegistryContention measures concurrent registry traffic
// (create, describe, drop) under different stripe counts: with one stripe
// every operation serializes on a single RWMutex; with more, only
// same-stripe operations contend.
func BenchmarkRegistryContention(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := New(Config{Workers: 2, Shards: shards})
			b.Cleanup(e.Close)
			var seed []string
			for i := 0; i < 64; i++ {
				info, err := e.CreateInstance("")
				if err != nil {
					b.Fatal(err)
				}
				seed = append(seed, info.ID)
			}
			var n atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					switch i := n.Add(1); i % 8 {
					case 0:
						info, err := e.CreateInstance("")
						if err != nil {
							b.Fatal(err)
						}
						e.DropInstance(info.ID)
					default:
						if _, ok := e.Instance(seed[int(i)%len(seed)]); !ok {
							b.Fatal("seed instance vanished")
						}
					}
				}
			})
		})
	}
}

// BenchmarkQueryAfterIngest measures incremental result maintenance: each
// iteration ingests one fresh fact and re-runs a fixed query. The write
// promotes the cached result by delta-evaluating the single inserted row,
// so the query is a warm hit.
func BenchmarkQueryAfterIngest(b *testing.B) {
	const chain = 2000
	// The sub-benchmark keeps its name, so the committed baseline still
	// matches it.
	b.Run("maintained", func(b *testing.B) {
		e := New(Config{Workers: 4, CacheSize: 64, IngestBatchSize: 1})
		b.Cleanup(e.Close)
		info, err := e.CreateInstance("")
		if err != nil {
			b.Fatal(err)
		}
		// A long chain keeps the full evaluation linear in the instance
		// (distinct constants, so no multiplicity blow-up) while the
		// per-iteration delta stays a single indexed probe.
		facts := make([]Fact, 0, chain)
		for i := 0; i < chain; i++ {
			facts = append(facts, Fact{
				Rel: "R", Tag: fmt.Sprintf("r%d", i),
				Values: []string{fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1)},
			})
		}
		if err := e.Ingest(info.ID, facts); err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		u := query.MustParseUnion(benchQuery)
		if _, err := e.Query(ctx, info.ID, u); err != nil {
			b.Fatal(err) // materialize the cache entry
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := Fact{
				Rel: "R", Tag: fmt.Sprintf("n%d", i),
				Values: []string{fmt.Sprintf("a%d", chain+i), fmt.Sprintf("a%d", chain+i+1)},
			}
			if err := e.Ingest(info.ID, []Fact{f}); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Query(ctx, info.ID, u); err != nil {
				b.Fatal(err)
			}
		}
	})
}
