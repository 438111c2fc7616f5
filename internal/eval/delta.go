package eval

import (
	"provmin/internal/db"
	"provmin/internal/query"
)

// EvalUCQDelta computes the semiring delta of a UCQ under a purely-additive
// update: the monomials that the inserted facts add to the result, and
// nothing else. N[X] provenance is additive for monotone queries, so
// eval(old) + delta == eval(new) tuple-for-tuple and coefficient-for-
// coefficient; the engine's result cache uses this to promote entries
// across a generation instead of invalidating them.
//
// d must be the POST-insert instance. oldLen maps every relation the batch
// touched to its pre-insert row count (0 for relations the batch created);
// relations absent from oldLen are unchanged. Ingest only ever appends, so
// rows [oldLen[r], Len) of a touched relation are exactly the inserted
// facts. The caller must guarantee the batch replaced no existing tuple's
// tag (such a batch is a mutation, not an insertion, and has no additive
// delta).
//
// Each adjunct expands into one delta term per body atom over a touched
// relation, using the standard partition that counts every new assignment
// exactly once — by the position of its FIRST delta row: in term i, atoms
// before i range over their pre-insert prefix, atom i over the inserted
// rows, and atoms after i over the full post-insert relation. (Binding
// every non-delta atom to the full instance, as a naive reading of the
// delta rules suggests, would double-count assignments that use two or
// more inserted rows.) Disequalities only filter assignments and never
// depend on the instance, so they pass through the partition unchanged.
//
// Every delta term runs on the enumerator, starting from the inserted-row
// window: the window is typically tiny relative to the relation, so the
// greedy order arranges the rest around its bindings, where the hash
// join's planner would order by relation size and bury the most selective
// atom.
func EvalUCQDelta(u *query.UCQ, d *db.Instance, oldLen map[string]int) (*Result, error) {
	res := newResult()
	for _, q := range u.Adjuncts {
		if err := deltaCQInto(res, q, d, oldLen); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

func deltaCQInto(res *Result, q *query.CQ, d *db.Instance, oldLen map[string]int) error {
	c, err := compileCQ(q, d)
	if err != nil {
		return err
	}
	emit := func(rows []int, binding []uint32) error {
		res.addWitness(c.headTuple(binding), c.monomial(rows))
		return nil
	}
	for i, at := range q.Atoms {
		lo, touched := oldLen[at.Rel]
		if !touched {
			continue
		}
		rel := d.Lookup(at.Rel)
		if rel == nil || rel.Len() <= lo {
			continue // no rows actually appended
		}
		ranges := make([]rowRange, len(q.Atoms))
		for j, bt := range q.Atoms {
			switch {
			case j == i:
				ranges[j] = rowRange{lo: lo, hi: rel.Len()}
			case j < i:
				if bl, ok := oldLen[bt.Rel]; ok {
					ranges[j] = rowRange{lo: 0, hi: bl}
				} else {
					ranges[j] = rowRange{lo: 0, hi: -1}
				}
			default:
				ranges[j] = rowRange{lo: 0, hi: -1}
			}
		}
		if err := c.forEach(i, ranges, emit); err != nil {
			return err
		}
	}
	return nil
}
