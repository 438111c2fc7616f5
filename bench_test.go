package provmin

// Benchmark harness: one testing.B benchmark per experiment, in sections
// numbered E1..E10 as in cmd/benchtables. `go test -bench=. -benchmem`
// regenerates the measured series; `cmd/benchtables` prints them as the
// paper-style tables.

import (
	"fmt"
	"testing"

	"provmin/internal/apps/deletion"
	"provmin/internal/apps/prob"
	"provmin/internal/db"
	"provmin/internal/direct"
	"provmin/internal/eval"
	"provmin/internal/hom"
	"provmin/internal/minimize"
	"provmin/internal/order"
	"provmin/internal/query"
	"provmin/internal/semiring"
	"provmin/internal/workload"
)

// --- E2: evaluation with provenance (Figure 1 / Tables 2-3) ---

func BenchmarkEvalQunionTable2(b *testing.B) {
	d := workload.Table2()
	for i := 0; i < b.N; i++ {
		if _, err := eval.EvalUCQ(workload.QUnion, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalTriangleRandomGraph(b *testing.B) {
	d := db.NewInstance()
	db.NewGenerator(1).RandomGraph(d, "R", 12, 60)
	u := query.Single(workload.QHat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.EvalUCQ(u, d); err != nil {
			b.Fatal(err)
		}
	}
}

// Evaluator ablation: the chain-4 query with the hash join's probe at its
// default fan-out and forced parallel on every step. Arm names use
// key=value segments so the bench pipeline's name handling ('=' inside
// multiple '/' segments) stays exercised by the real suite.
func BenchmarkEvalAblation(b *testing.B) {
	d := db.NewInstance()
	db.NewGenerator(2).RandomGraph(d, "R", 10, 40)
	q := workload.ChainCQ(4)
	for _, cfg := range []struct {
		name string
		opts eval.Options
	}{
		{"join=hash/key=interned/par=seq", eval.Options{}},
		{"join=hash/key=interned/par=max", eval.Options{ParallelThreshold: 1}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.EvalCQOpts(q, d, cfg.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Parallel hash-join at a size where fan-out pays: a triangle query over a
// graph large enough that build/probe partitioning beats the sequential
// scan. par=seq and par=max share the instance, so the delta is the
// parallel machinery alone.
func BenchmarkEvalParallelLargeGraph(b *testing.B) {
	d := db.NewInstance()
	db.NewGenerator(3).RandomGraph(d, "R", 60, 1800)
	u := query.Single(workload.QHat)
	for _, cfg := range []struct {
		name string
		opts eval.Options
	}{
		{"par=seq", eval.Options{Parallelism: 1}},
		{"par=max", eval.Options{ParallelThreshold: 1}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.EvalUCQOpts(u, d, cfg.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Semiring-evaluation ablation: materialize N[X] then specialize, vs direct
// per-assignment evaluation in the target semiring.
func BenchmarkSemiringEvalAblation(b *testing.B) {
	d := db.NewInstance()
	db.NewGenerator(6).RandomGraph(d, "R", 10, 40)
	u := query.Single(workload.QHat)
	val := func(string) int { return 1 }
	b.Run("via-polynomial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.EvalInSemiring[int](u, d, semiring.Counting{}, val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.EvalDirect[int](u, d, semiring.Counting{}, val); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E4: MinProv on the Figure 3 example ---

func BenchmarkMinProvQHat(b *testing.B) {
	u := query.Single(workload.QHat)
	for i := 0; i < b.N; i++ {
		minimize.MinProv(u)
	}
}

// --- E5: Theorem 4.10 exponential blowup, Q_n sweep ---

func BenchmarkMinProvQn(b *testing.B) {
	for n := 1; n <= 3; n++ {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := workload.QN(n)
			var adjuncts int
			for i := 0; i < b.N; i++ {
				adjuncts = len(minimize.MinProvCQ(q).Adjuncts)
			}
			b.ReportMetric(float64(adjuncts), "adjuncts")
		})
	}
}

// --- E7: Theorem 3.12, PTIME cCQ≠ minimization vs MinProv ---

func BenchmarkCCQMinimize(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("atoms=%d", n), func(b *testing.B) {
			base := workload.ChainCQ(n / 2)
			atoms := append([]query.Atom{}, base.Atoms...)
			atoms = append(atoms, base.Atoms...)
			q := query.NewCQ(base.Head, atoms, nil).CompleteWRT(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := minimize.MinimizeCCQ(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStandardMinimizeCQ(b *testing.B) {
	for _, n := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("star=%d", n), func(b *testing.B) {
			q := workload.StarCQ(n)
			for i := 0; i < b.N; i++ {
				if _, err := minimize.StandardMinimizeCQ(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: Theorem 5.1, direct core computation ---

func BenchmarkDirectCorePTIME(b *testing.B) {
	p := cyclePolynomial(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		direct.CoreUpToCoefficients(p)
	}
}

func BenchmarkDirectCoreExact(b *testing.B) {
	d := db.NewInstance()
	db.NewGenerator(4).RandomGraph(d, "R", 5, 18)
	p, err := eval.Provenance(query.Single(workload.CycleCQ(4)), d, db.Tuple{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := direct.CoreExact(p, d, db.Tuple{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func cyclePolynomial(b *testing.B, n int) semiring.Polynomial {
	b.Helper()
	d := db.NewInstance()
	db.NewGenerator(4).RandomGraph(d, "R", 5, 18)
	p, err := eval.Provenance(query.Single(workload.CycleCQ(n)), d, db.Tuple{})
	if err != nil {
		b.Fatal(err)
	}
	if p.IsZero() {
		b.Fatal("expected a non-zero polynomial")
	}
	return p
}

// --- E1/E10: containment & equivalence procedures ---

func BenchmarkContainmentHomCQ(b *testing.B) {
	q1 := workload.ChainCQ(6)
	q2 := workload.ChainCQ(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hom.ContainedCQ(q1, q2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEquivalenceGeneral(b *testing.B) {
	for _, n := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			q1, q2 := workload.ChainCQ(n), workload.ChainCQ(n)
			for i := 0; i < b.N; i++ {
				minimize.EquivalentCQ(q1, q2)
			}
		})
	}
}

// --- Order-relation ablation: exact matching vs greedy ---

func BenchmarkPolyOrder(b *testing.B) {
	p := cyclePolynomial(b, 3)
	q := cyclePolynomial(b, 4)
	b.Run("matching", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order.PolyLE(p, q)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order.GreedyPolyLE(p, q)
		}
	})
}

// --- E8: downstream tools, full vs core provenance ---

func BenchmarkProbFullVsCore(b *testing.B) {
	p := cyclePolynomial(b, 3)
	core := direct.CoreUpToCoefficients(p)
	pr := prob.UniformProb(0.5)
	if len(semiring.Why(p).Witnesses()) > prob.MaxExactWitnesses {
		b.Skip("random polynomial exceeds the exact-inference witness cap")
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prob.Exact(p, pr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prob.Exact(core, pr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDeletionPropagation(b *testing.B) {
	d := db.NewInstance()
	db.NewGenerator(5).RandomGraph(d, "R", 8, 40)
	res, err := eval.EvalCQ(workload.QHat, d)
	if err != nil {
		b.Fatal(err)
	}
	deleted := map[string]bool{"s1": true, "s5": true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deletion.Propagate(res, deleted)
	}
}

// --- E9: canonical rewriting cost (Step I of MinProv) ---

func BenchmarkCanonicalRewriting(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("vars=%d", n+1), func(b *testing.B) {
			q := workload.ChainCQ(n)
			for i := 0; i < b.N; i++ {
				minimize.Can(q, nil)
			}
		})
	}
}
