package eval

// planOrder is the hash join's cost-based planner: it greedily grows the
// join prefix by the atom minimizing the estimated intermediate
// cardinality
//
//	card' = card × rows(atom) / Π over bound join columns max(1, distinct(col))
//
// where rows(atom) is the relation size, tightened by the index count of
// the atom's most selective constant column, and the per-column distinct
// counts come from the relations' HyperLogLog sketches. Relation sizes
// alone treat a join through a 2-distinct column and one through a key
// column identically; the division above is exactly what tells them
// apart. Atoms sharing a bound variable are still preferred over cross
// products regardless of estimate, and ties keep body order, so plans stay
// deterministic. c must not be empty: every atom has a non-empty relation.
func (c *compiledCQ) planOrder() []int {
	n := len(c.atoms)
	base := make([]float64, n)
	for i, at := range c.atoms {
		rows := at.rel.Len()
		for col, a := range at.args {
			if a.isConst {
				rows = min(rows, len(at.rel.RowsWithID(col, a.val)))
			}
		}
		base[i] = float64(rows)
	}
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := make([]bool, len(c.vars))
	card := 1.0
	for len(order) < n {
		best, bestShares := -1, false
		bestCard := 0.0
		for i, at := range c.atoms {
			if used[i] {
				continue
			}
			sel := 1.0
			shares := false
			for col, a := range at.args {
				if a.isConst || !bound[a.v] {
					continue
				}
				shares = true
				if dist, ok := at.rel.DistinctEstimate(col); ok && dist > 1 {
					sel /= dist
				}
			}
			cand := card * base[i] * sel
			switch {
			case best == -1,
				shares && !bestShares,
				shares == bestShares && cand < bestCard:
				best, bestShares, bestCard = i, shares, cand
			}
		}
		order = append(order, best)
		used[best] = true
		if card = bestCard; card < 1 {
			card = 1
		}
		for _, a := range c.atoms[best].args {
			if !a.isConst {
				bound[a.v] = true
			}
		}
	}
	return order
}
