package db

import (
	"math"
	"math/bits"
)

// Cardinality statistics: every relation column carries a small HyperLogLog
// sketch of its distinct values, updated incrementally on Add from the
// symbol table's memoized hashes — O(1) per value, 64 bytes per column, no
// rescans. The evaluator's cost-based join planner consumes the estimates
// to order joins by expected intermediate cardinality instead of guessing
// from relation sizes alone.
//
// Deletions do not shrink the sketch (HLL is monotone), so after deletes
// the estimate is an upper bound — which only makes the planner slightly
// conservative, never wrong: plans affect cost, not results.

// hllRegisters is the sketch size (m = 2^hllP registers). p=6 keeps the
// sketch at 64 bytes per column with a standard error of 1.04/sqrt(64) ~
// 13% — plenty for join ordering, where estimates feed ratio comparisons.
const (
	hllP         = 6
	hllRegisters = 1 << hllP
)

// distinctSketch is a fixed-size HyperLogLog counter.
type distinctSketch struct {
	reg [hllRegisters]uint8
}

// add observes one 64-bit hash.
func (s *distinctSketch) add(h uint64) {
	idx := h >> (64 - hllP)
	// Rank of the remaining bits: leading zeros + 1, capped by the width.
	rest := h<<hllP | 1<<(hllP-1) // low bits set so rank is always defined
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > s.reg[idx] {
		s.reg[idx] = rank
	}
}

// estimate returns the approximate number of distinct hashes observed.
func (s *distinctSketch) estimate() float64 {
	// Standard HLL estimator with the small-range (linear counting)
	// correction; the large-range correction is irrelevant at 2^32 scale.
	const alpha = 0.709 // alpha_64 for m=64
	sum := 0.0
	zeros := 0
	for _, r := range s.reg {
		sum += 1.0 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	m := float64(hllRegisters)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// DistinctEstimate returns the approximate count of distinct values in the
// column, clamped to [1, Len] (a non-empty column has at least one distinct
// value and at most one per row). It returns (0, false) when the relation
// is empty or the column is out of range.
func (r *Relation) DistinctEstimate(col int) (float64, bool) {
	if col < 0 || col >= r.Arity || r.Len() == 0 {
		return 0, false
	}
	e := r.sketches[col].estimate()
	if e < 1 {
		e = 1
	}
	if n := float64(r.Len()); e > n {
		e = n
	}
	return e, true
}
