package eval

import (
	"provmin/internal/db"
	"provmin/internal/query"
	"provmin/internal/semiring"
)

// This file is the core every evaluation path starts from: a query is
// compiled against the instance's symbol table so that every domain value
// is a dense uint32 id, bindings are flat []uint32 slices indexed by a
// per-query variable number, and equality checks are single integer
// compares. The backtracking enumerator below runs small conjuncts, the
// delta maintainer's row windows and every per-assignment API
// (ForEachAssignment, Derivations, EvalDirect); the hash join
// (hashjoin_intern.go) runs larger conjuncts. Results are resolved back to
// strings only at emission; the naive evaluator in oracle_test.go checks
// both against Def. 2.12.

// iArg is one compiled atom (or disequality/head) argument.
type iArg struct {
	isConst bool
	val     uint32 // const: symbol id; invalidID = value stored nowhere
	v       int    // var: dense per-query variable index
}

// invalidID mirrors db's reserved symbol id 0 ("no such value" / "unbound").
const invalidID uint32 = 0

// iAtom is one compiled body atom.
type iAtom struct {
	rel  *db.Relation // nil: relation absent from the instance
	args []iArg
}

// compiledCQ is a conjunctive query bound to one instance's symbol table.
type compiledCQ struct {
	q      *query.CQ
	syms   *db.SymbolTable
	atoms  []iAtom
	diseqs [][2]iArg // var/const sides; statically-true pairs dropped
	head   []iArg
	vars   []string // variable names by dense index
	// empty: no assignment exists — some atom can match no row (absent or
	// empty relation, or a constant the instance has never stored), or a
	// constant-constant disequality has equal sides.
	empty bool
}

// compileCQ validates q and lowers it onto d's symbol table. Variable
// indices are assigned in first-occurrence order over the body atoms.
func compileCQ(q *query.CQ, d *db.Instance) (*compiledCQ, error) {
	if err := validateCQ(q, d); err != nil {
		return nil, err
	}
	c := &compiledCQ{q: q, syms: d.Symbols()}
	varIdx := map[string]int{}
	arg := func(a query.Arg) iArg {
		if a.Const {
			id, _ := c.syms.Lookup(a.Name) // miss: invalidID
			return iArg{isConst: true, val: id}
		}
		i, ok := varIdx[a.Name]
		if !ok {
			i = len(c.vars)
			varIdx[a.Name] = i
			c.vars = append(c.vars, a.Name)
		}
		return iArg{v: i}
	}
	for _, at := range q.Atoms {
		ia := iAtom{rel: d.Lookup(at.Rel), args: make([]iArg, len(at.Args))}
		for i, a := range at.Args {
			ia.args[i] = arg(a)
			if ia.args[i].isConst && ia.args[i].val == invalidID {
				c.empty = true // constant stored nowhere: atom matches no row
			}
		}
		if ia.rel == nil || ia.rel.Len() == 0 {
			c.empty = true
		}
		c.atoms = append(c.atoms, ia)
	}
	for _, dq := range q.Diseqs {
		if dq.Left.Const && dq.Right.Const {
			if dq.Left.Name == dq.Right.Name {
				c.empty = true
			}
			continue // unequal constants always hold: drop
		}
		c.diseqs = append(c.diseqs, [2]iArg{arg(dq.Left), arg(dq.Right)})
	}
	c.head = make([]iArg, len(q.Head.Args))
	for i, a := range q.Head.Args {
		if a.Const {
			// Head constants are echoed from the query text, not resolved
			// through the table — keep them as variables-free markers; the
			// emitters read q.Head.Args[i].Name directly.
			c.head[i] = iArg{isConst: true}
		} else {
			c.head[i] = iArg{v: varIdx[a.Name]}
		}
	}
	return c, nil
}

// diseqHolds evaluates one compiled disequality under a (possibly partial)
// binding; decided reports whether both sides have values. Const-const
// pairs were decided at compile time and never reach here, so at most one
// side is an uninterned constant (invalidID), which can never equal a
// bound variable's id — every binding value is a stored symbol.
func (c *compiledCQ) diseqHolds(dq [2]iArg, binding []uint32) (holds, decided bool) {
	var l, r uint32
	if dq[0].isConst {
		l = dq[0].val
	} else if l = binding[dq[0].v]; l == invalidID {
		return true, false
	}
	if dq[1].isConst {
		r = dq[1].val
	} else if r = binding[dq[1].v]; r == invalidID {
		return true, false
	}
	return l != r || l == invalidID, true
}

// headTuple materializes the head under a full binding.
func (c *compiledCQ) headTuple(binding []uint32) db.Tuple {
	out := make(db.Tuple, len(c.head))
	for i, a := range c.head {
		if a.isConst {
			out[i] = c.q.Head.Args[i].Name
		} else {
			out[i] = c.syms.Value(binding[a.v])
		}
	}
	return out
}

// monomial computes the annotation product of the rows an assignment uses.
func (c *compiledCQ) monomial(rows []int) semiring.Monomial {
	tags := make([]string, len(c.atoms))
	for i, at := range c.atoms {
		tags[i] = at.rel.Rows()[rows[i]].Tag
	}
	return semiring.MonomialFromVars(tags)
}

// assignment copies an enumerated assignment out into the exported form.
func (c *compiledCQ) assignment(rows []int, binding []uint32) Assignment {
	a := Assignment{Rows: append([]int(nil), rows...), Binding: make(map[string]string, len(c.vars))}
	for i, name := range c.vars {
		a.Binding[name] = c.syms.Value(binding[i])
	}
	return a
}

// greedyOrder is the enumerator's atom order, most-constrained-first: each
// step takes the atom with the most arguments already decided (constants
// or bound variables), ties in body order. first >= 0 forces that atom to
// the front — the delta maintainer starts from its inserted-row window.
func (c *compiledCQ) greedyOrder(first int) []int {
	n := len(c.atoms)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := make([]bool, len(c.vars))
	take := func(i int) {
		order = append(order, i)
		used[i] = true
		for _, a := range c.atoms[i].args {
			if !a.isConst {
				bound[a.v] = true
			}
		}
	}
	if first >= 0 {
		take(first)
	}
	for len(order) < n {
		best, bestScore := -1, -1
		for i, at := range c.atoms {
			if used[i] {
				continue
			}
			score := 0
			for _, a := range at.args {
				if a.isConst || bound[a.v] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		take(best)
	}
	return order
}

// rowRange is a half-open row window [lo, hi); hi < 0 means the relation's
// full current length.
type rowRange struct{ lo, hi int }

// forEach calls fn for every satisfying assignment, found by backtracking
// over the atoms in greedyOrder(first), each restricted to its row window
// when ranges is non-nil. The rows and binding passed to fn are reused
// afterwards.
func (c *compiledCQ) forEach(first int, ranges []rowRange, fn func(rows []int, binding []uint32) error) error {
	if c.empty {
		return nil
	}
	e := &enumerator{
		c:       c,
		order:   c.greedyOrder(first),
		ranges:  ranges,
		binding: make([]uint32, len(c.vars)),
		rows:    make([]int, len(c.atoms)),
		fn:      fn,
	}
	return e.extend(0)
}

// enumerator is the backtracking search behind forEach.
type enumerator struct {
	c       *compiledCQ
	order   []int
	ranges  []rowRange // per atom index; nil = unrestricted
	binding []uint32   // var index -> symbol id; invalidID = unbound
	rows    []int
	fn      func(rows []int, binding []uint32) error
}

func (e *enumerator) extend(step int) error {
	c := e.c
	if step == len(e.order) {
		for _, dq := range c.diseqs {
			if holds, _ := c.diseqHolds(dq, e.binding); !holds {
				return nil
			}
		}
		return e.fn(e.rows, e.binding)
	}
	atomIdx := e.order[step]
	at := c.atoms[atomIdx]
	for _, rowIdx := range e.candidates(atomIdx, at) {
		row := at.rel.RowIDs(rowIdx)
		newly, ok := e.tryBind(at, row)
		if ok && e.diseqsConsistent() {
			e.rows[atomIdx] = rowIdx
			if err := e.extend(step + 1); err != nil {
				return err
			}
		}
		for _, v := range newly {
			e.binding[v] = invalidID
		}
	}
	return nil
}

// candidates probes the per-column id index on the first decided
// argument, restricted to the atom's row window; without one it scans the
// window.
func (e *enumerator) candidates(atomIdx int, at iAtom) []int {
	rel := at.rel
	lo, hi := 0, rel.Len()
	if e.ranges != nil {
		r := e.ranges[atomIdx]
		lo = r.lo
		if r.hi >= 0 && r.hi < hi {
			hi = r.hi
		}
	}
	for col, a := range at.args {
		var id uint32
		if a.isConst {
			id = a.val
		} else if id = e.binding[a.v]; id == invalidID {
			continue
		}
		rows := rel.RowsWithID(col, id)
		if lo == 0 && hi == rel.Len() {
			return rows
		}
		in := make([]int, 0, len(rows))
		for _, i := range rows {
			if i >= lo && i < hi {
				in = append(in, i)
			}
		}
		return in
	}
	all := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		all = append(all, i)
	}
	return all
}

// tryBind unifies the atom's arguments with the row ids, extending the
// binding; newly holds the var indices bound here, for rollback.
func (e *enumerator) tryBind(at iAtom, row []uint32) (newly []int, ok bool) {
	for i, a := range at.args {
		if a.isConst {
			if a.val != row[i] {
				e.rollback(newly)
				return nil, false
			}
			continue
		}
		if v := e.binding[a.v]; v != invalidID {
			if v != row[i] {
				e.rollback(newly)
				return nil, false
			}
			continue
		}
		e.binding[a.v] = row[i]
		newly = append(newly, a.v)
	}
	return newly, true
}

func (e *enumerator) rollback(newly []int) {
	for _, v := range newly {
		e.binding[v] = invalidID
	}
}

// diseqsConsistent prunes on disequalities whose sides are both decided.
func (e *enumerator) diseqsConsistent() bool {
	for _, dq := range e.c.diseqs {
		if holds, decided := e.c.diseqHolds(dq, e.binding); decided && !holds {
			return false
		}
	}
	return true
}
