package main

import (
	"math/rand"
	"testing"

	"provmin/internal/db"
	"provmin/internal/engine"
	"provmin/internal/eval"
	"provmin/internal/query"
)

// bodyConnected checks connectivity on the parsed query, independently of
// the generator's own check: variables are linked when they share an atom.
func bodyConnected(q *query.CQ) bool {
	adj := map[string][]string{}
	for _, a := range q.Atoms {
		var vs []string
		for _, arg := range a.Args {
			if !arg.Const {
				vs = append(vs, arg.Name)
			}
		}
		for _, v := range vs {
			adj[v] = append(adj[v], vs...)
		}
	}
	var start string
	for v := range adj {
		start = v
		break
	}
	seen := map[string]bool{start: true}
	todo := []string{start}
	for len(todo) > 0 {
		v := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				todo = append(todo, w)
			}
		}
	}
	return len(seen) == len(adj)
}

func TestGeneratorNeverEmitsADisconnectedBody(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		text := unionText(randomQuery(rng))
		u, err := query.ParseUnion(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		for _, q := range u.Adjuncts {
			if !bodyConnected(q) {
				t.Fatalf("disconnected body: %q", text)
			}
			if n := len(q.Atoms); n < 2 || n > 4 {
				t.Fatalf("%d atoms in %q", n, text)
			}
		}
	}
}

// TestGeneratorYieldsManyDistinctQueries counts distinct canonical keys
// among the queries the size bound lets through, the ones cold-eval sends:
// a run sends a few thousand.
func TestGeneratorYieldsManyDistinctQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := referenceGraph()
	keys := map[string]bool{}
	for light := 0; light < 100000; {
		q := randomQuery(rng)
		if !ref.light(q) {
			continue
		}
		light++
		keys[engine.CanonicalKey(query.MustParseUnion(unionText(q)))] = true
	}
	if len(keys) < 40000 {
		t.Fatalf("%d distinct canonical keys in 100000 queries, want at least 40000", len(keys))
	}
}

// TestDerivationsMatchTheEvaluator checks the size bound's counter against
// the number of assignments the evaluator's provenance sums (Def. 2.12).
func TestDerivationsMatchTheEvaluator(t *testing.T) {
	d := db.NewInstance()
	db.NewGenerator(referenceSeed).RandomGraph(d, "R", graphNodes, graphEdges)
	ref := referenceGraph()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		q := randomCQ(rng)
		res, err := eval.EvalUCQ(query.MustParseUnion(q.String()), d)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, tp := range res.Tuples() {
			want += tp.Prov.NumOccurrences()
		}
		if got := ref.derivations(q, 1<<30); got != want {
			t.Fatalf("%s: counted %d derivations, the evaluator %d", q, got, want)
		}
	}
}
