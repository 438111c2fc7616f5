// Package order implements the paper's order relations (Section 2.4):
// m ≤ m' on monomials (an injective mapping of variable occurrences with
// equal variables, i.e. multiset inclusion), p ≤ p' on polynomials (an
// injective mapping of monomial occurrences into containing monomial
// occurrences, Def. 2.15), and the induced relation ≤_P on the annotated
// results of equivalent queries (Def. 2.17).
//
// The polynomial test is a bipartite matching problem with multiplicities;
// it is solved exactly by integer max-flow. A greedy variant is exported for
// the ablation benchmark that demonstrates why matching is necessary.
package order

import (
	"provmin/internal/semiring"
)

// Relation is the outcome of comparing two polynomials (or results) under
// the partial order ≤.
type Relation int

const (
	// Incomparable: neither p ≤ q nor q ≤ p.
	Incomparable Relation = iota
	// Less: p ≤ q and not q ≤ p (strictly terser).
	Less
	// Equal: p ≤ q and q ≤ p.
	Equal
	// Greater: q ≤ p and not p ≤ q.
	Greater
)

// String names the relation.
func (r Relation) String() string {
	switch r {
	case Less:
		return "<"
	case Equal:
		return "="
	case Greater:
		return ">"
	}
	return "incomparable"
}

// MonomialLE reports m ≤ n per Def. 2.15: an injective mapping of the
// occurrences of m into occurrences of n preserving variables, which is
// exactly multiset inclusion.
func MonomialLE(m, n semiring.Monomial) bool { return m.Divides(n) }

// PolyLE reports p ≤ q per Def. 2.15: an injective mapping of the monomial
// occurrences of p into the monomial occurrences of q such that each
// monomial maps into a containing monomial.
func PolyLE(p, q semiring.Polynomial) bool {
	pt, qt := p.Terms(), q.Terms()
	if p.NumOccurrences() > q.NumOccurrences() {
		return false
	}
	// Build the bipartite compatibility graph over distinct monomials with
	// capacities given by coefficients, then check that a saturating flow
	// from the p side exists.
	adj := make([][]int, len(pt))
	for i, a := range pt {
		for j, b := range qt {
			if a.Monomial.Divides(b.Monomial) {
				adj[i] = append(adj[i], j)
			}
		}
		if adj[i] == nil {
			return false
		}
	}
	return saturates(adj, coefs(pt), coefs(qt))
}

// PolyEq reports p = q in the order sense (p ≤ q and q ≤ p). Note this is
// coarser than semiring equality: s1 + s1 and 2*s1 are trivially =, but so
// are no distinct canonical polynomials — in fact order-equality coincides
// with polynomial equality (the paper's p = p'), which the tests verify on
// random inputs; both implementations are kept as a cross-check.
func PolyEq(p, q semiring.Polynomial) bool { return PolyLE(p, q) && PolyLE(q, p) }

// PolyLT reports p < q: p ≤ q but not p = q.
func PolyLT(p, q semiring.Polynomial) bool { return PolyLE(p, q) && !PolyLE(q, p) }

// Compare classifies the pair under the partial order.
func Compare(p, q semiring.Polynomial) Relation {
	le, ge := PolyLE(p, q), PolyLE(q, p)
	switch {
	case le && ge:
		return Equal
	case le:
		return Less
	case ge:
		return Greater
	}
	return Incomparable
}

func coefs(ts []semiring.MonomialTerm) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.Coef
	}
	return out
}

// saturates decides whether a flow assigning every unit of the left
// capacities along compatibility edges into right capacities exists
// (Edmonds–Karp on the small bipartite network).
func saturates(adj [][]int, leftCap, rightCap []int) bool {
	nL, nR := len(leftCap), len(rightCap)
	// Node ids: 0 = source, 1..nL = left, nL+1..nL+nR = right, nL+nR+1 = sink.
	n := nL + nR + 2
	src, snk := 0, n-1
	cap := make([][]int, n)
	for i := range cap {
		cap[i] = make([]int, n)
	}
	need := 0
	for i, c := range leftCap {
		cap[src][1+i] = c
		need += c
	}
	for j, c := range rightCap {
		cap[1+nL+j][snk] = c
	}
	for i, js := range adj {
		for _, j := range js {
			cap[1+i][1+nL+j] = leftCap[i] // edge capacity bounded by supply
		}
	}
	flow := 0
	for {
		// BFS for an augmenting path.
		prev := make([]int, n)
		for i := range prev {
			prev[i] = -1
		}
		prev[src] = src
		queue := []int{src}
		for len(queue) > 0 && prev[snk] == -1 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < n; v++ {
				if prev[v] == -1 && cap[u][v] > 0 {
					prev[v] = u
					queue = append(queue, v)
				}
			}
		}
		if prev[snk] == -1 {
			break
		}
		// Bottleneck.
		aug := int(^uint(0) >> 1)
		for v := snk; v != src; v = prev[v] {
			if cap[prev[v]][v] < aug {
				aug = cap[prev[v]][v]
			}
		}
		for v := snk; v != src; v = prev[v] {
			cap[prev[v]][v] -= aug
			cap[v][prev[v]] += aug
		}
		flow += aug
	}
	return flow == need
}

// GreedyPolyLE is an intentionally incomplete greedy approximation of
// PolyLE: it matches each occurrence of p (largest degree first) to the
// smallest still-available containing occurrence of q. It can report false
// negatives; the ablation benchmark quantifies how often. Kept for the
// "matching vs greedy" ablation (BenchmarkPolyOrder).
func GreedyPolyLE(p, q semiring.Polynomial) bool {
	left := p.MonomialOccurrences()
	right := q.MonomialOccurrences()
	if len(left) > len(right) {
		return false
	}
	// Largest-degree-first on the left.
	for i := 0; i < len(left); i++ {
		for j := i + 1; j < len(left); j++ {
			if left[j].Degree() > left[i].Degree() {
				left[i], left[j] = left[j], left[i]
			}
		}
	}
	used := make([]bool, len(right))
	for _, m := range left {
		best := -1
		for j, n := range right {
			if used[j] || !m.Divides(n) {
				continue
			}
			if best == -1 || n.Degree() < right[best].Degree() {
				best = j
			}
		}
		if best == -1 {
			return false
		}
		used[best] = true
	}
	return true
}
