package main

import (
	"fmt"
	"math/rand"
	"strings"

	"provmin/internal/db"
)

// Query shape. Bodies are 2–4 atoms over the binary relation R with 3–4
// variables; each variable pair gets a disequality with probability
// diseqProb, and unionShare of the fresh queries are 2-adjunct UCQ≠s.
const (
	diseqProb  = 0.2
	unionShare = 0.25
	// maxDerivations bounds the derivations a query may have on the
	// reference instance. Random connected bodies fall in two clusters:
	// cyclic or self-looped ones with up to a few hundred derivations,
	// and trees with 1,800 to 16,000, whose 10–120 KB answers and
	// megabytes of garbage per request made p50 and p90 unrepeatable.
	// The bound keeps the first cluster.
	maxDerivations = 1000
	referenceSeed  = 13
)

var varPool = [...]string{"x", "y", "z", "w"}

// cq is a generated conjunctive query over R: atoms and disequalities
// over variables 0..nv-1, and the head variable.
type cq struct {
	nv     int
	head   int
	atoms  [][2]int
	diseqs [][2]int
}

func (q cq) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ans(%s) :- ", varPool[q.head])
	for i, a := range q.atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "R(%s,%s)", varPool[a[0]], varPool[a[1]])
	}
	for _, d := range q.diseqs {
		fmt.Fprintf(&b, ", %s != %s", varPool[d[0]], varPool[d[1]])
	}
	return b.String()
}

// randomCQ returns a CQ≠ whose body is connected: every variable is
// reachable from every other through shared atoms. Bodies that are
// disconnected are drawn again, never emitted: their answers are cross
// products, which took seconds per request and made runs unrepeatable.
// Duplicate atoms are drawn again too, so distinct texts are distinct
// queries rather than copies that MinProv collapses into one.
func randomCQ(rng *rand.Rand) cq {
	for {
		q := cq{nv: 3 + rng.Intn(2)}
		minAtoms := max(2, q.nv-1) // a connected binary body over nv variables needs nv-1 atoms
		na := minAtoms + rng.Intn(4-minAtoms+1)
		for len(q.atoms) < na {
			a := [2]int{rng.Intn(q.nv), rng.Intn(q.nv)}
			dup := false
			for _, b := range q.atoms {
				dup = dup || a == b
			}
			if !dup {
				q.atoms = append(q.atoms, a)
			}
		}
		if !connected(q.nv, q.atoms) {
			continue
		}
		q.head = rng.Intn(q.nv)
		for i := 0; i < q.nv; i++ {
			for j := i + 1; j < q.nv; j++ {
				if rng.Float64() < diseqProb {
					q.diseqs = append(q.diseqs, [2]int{i, j})
				}
			}
		}
		return q
	}
}

// randomQuery returns a fresh query: a connected CQ≠, or with probability
// unionShare a union of two.
func randomQuery(rng *rand.Rand) []cq {
	if rng.Float64() < unionShare {
		return []cq{randomCQ(rng), randomCQ(rng)}
	}
	return []cq{randomCQ(rng)}
}

// unionText renders a union as provmind parses it.
func unionText(u []cq) string {
	parts := make([]string, len(u))
	for i, q := range u {
		parts[i] = q.String()
	}
	return strings.Join(parts, "; ")
}

// connected reports whether the atoms use all nv variables and link them
// into one component.
func connected(nv int, atoms [][2]int) bool {
	parent := make([]int, nv)
	used := make([]bool, nv)
	for i := range parent {
		parent[i] = i
	}
	find := func(v int) int {
		for parent[v] != v {
			v = parent[v]
		}
		return v
	}
	for _, a := range atoms {
		used[a[0]], used[a[1]] = true, true
		parent[find(a[0])] = find(a[1])
	}
	root := find(0)
	for v := 0; v < nv; v++ {
		if !used[v] || find(v) != root {
			return false
		}
	}
	return true
}

// graph is an instance of R as adjacency over value indices, for counting
// derivations without evaluating provenance.
type graph struct {
	n       int
	edge    []bool // edge[a*n+b]
	out, in [][]int
}

// referenceGraph is the instance queries are sized on: a graph like the
// seeded ones, from a constant seed, so the sizing never varies with -seed.
func referenceGraph() *graph {
	d := db.NewInstance()
	return newGraph(db.NewGenerator(referenceSeed).RandomGraph(d, "R", graphNodes, graphEdges))
}

// newGraph indexes a relation R over the generated values d0..d{n-1}.
func newGraph(rel *db.Relation) *graph {
	g := &graph{n: graphNodes, edge: make([]bool, graphNodes*graphNodes),
		out: make([][]int, graphNodes), in: make([][]int, graphNodes)}
	for _, row := range rel.Rows() {
		a, b := valueIndex(row.Tuple[0]), valueIndex(row.Tuple[1])
		g.edge[a*g.n+b] = true
		g.out[a] = append(g.out[a], b)
		g.in[b] = append(g.in[b], a)
	}
	return g
}

// light reports whether a union has fewer than maxDerivations derivations
// on g: assignments of its variables satisfying every atom and
// disequality, which is the number of monomials its provenance sums.
func (g *graph) light(u []cq) bool {
	left := maxDerivations
	for _, q := range u {
		left -= g.derivations(q, left)
		if left <= 0 {
			return false
		}
	}
	return true
}

// derivations counts q's derivations on g, stopping once it reaches limit.
// Atoms are joined in an order where each shares a variable with an
// earlier one, which the connected body allows.
func (g *graph) derivations(q cq, limit int) int {
	order := [][2]int{q.atoms[0]}
	bound := map[int]bool{q.atoms[0][0]: true, q.atoms[0][1]: true}
	rest := append([][2]int(nil), q.atoms[1:]...)
	for len(rest) > 0 {
		for i, a := range rest {
			if bound[a[0]] || bound[a[1]] {
				order = append(order, a)
				bound[a[0]], bound[a[1]] = true, true
				rest = append(rest[:i], rest[i+1:]...)
				break
			}
		}
	}
	val := []int{-1, -1, -1, -1}
	count := 0
	var rec func(i int)
	rec = func(i int) {
		if count >= limit {
			return
		}
		if i == len(order) {
			for _, d := range q.diseqs {
				if val[d[0]] == val[d[1]] {
					return
				}
			}
			count++
			return
		}
		a, b := order[i][0], order[i][1]
		try := func(v, w int) {
			va, vb := val[a], val[b]
			val[a], val[b] = v, w
			rec(i + 1)
			val[a], val[b] = va, vb
		}
		switch va, vb := val[a], val[b]; {
		case va >= 0 && vb >= 0:
			if g.edge[va*g.n+vb] {
				rec(i + 1)
			}
		case va >= 0:
			for _, w := range g.out[va] {
				try(va, w)
			}
		case vb >= 0:
			for _, v := range g.in[vb] {
				try(v, vb)
			}
		case a == b:
			for v := 0; v < g.n; v++ {
				if g.edge[v*g.n+v] {
					try(v, v)
				}
			}
		default:
			for v := 0; v < g.n; v++ {
				for _, w := range g.out[v] {
					try(v, w)
				}
			}
		}
	}
	rec(0)
	return count
}
