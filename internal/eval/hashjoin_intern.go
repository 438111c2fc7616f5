package eval

import (
	"runtime"
	"sync"

	"provmin/internal/db"
	"provmin/internal/semiring"
)

// This file is the hash join: instead of enumerating assignments tuple by
// tuple (the enumerator in intern.go), it joins a whole conjunct
// set-at-a-time with hash joins on shared variables, in the order the cost
// planner (hashjoin.go) picks. Join keys are fixed-width uint64 composites
// of symbol ids (one or two packed uint32 ids cover almost every real
// join; wider keys pack ids into a byte string), build-side admission
// checks are integer compares, and — because partial assignments are
// immutable parent-linked nodes and N[X] polynomials are canonical — both
// the probe of a large step and the final emission can be split across
// workers without changing the result by a byte.

// parallelProbeThreshold is the default minimum number of partial
// assignments a join step must carry before its probe fans out. Below it
// the goroutine hand-off costs more than the probe itself.
const parallelProbeThreshold = 1024

// varRef locates a variable's value inside the join trie: bound at plan
// step, at position idx of that step's newly-bound values.
type varRef struct {
	step, idx int
}

// hjNode is one partial assignment: ids of the variables its step newly
// bound, the row tag joined in, and the assignment it extends. Immutable
// after construction, so nodes are shared freely across worker goroutines.
type hjNode struct {
	parent *hjNode
	vals   []uint32
	tag    string
}

// value resolves a variable reference from the node for plan step `step`.
func (n *hjNode) value(step int, ref varRef) uint32 {
	for ; step > ref.step; step-- {
		n = n.parent
	}
	return n.vals[ref.idx]
}

// match is one build-side row admitted by an atom's constants, projected
// to the ids of the atom's newly introduced variables.
type match struct {
	vals []uint32
	tag  string
}

// buckets hashes build-side rows by their join-column ids. Up to two join
// columns — the overwhelmingly common case — the key is the two ids packed
// into one uint64 (injective, no allocation); wider keys pack all ids into
// a byte string.
type buckets struct {
	wide  bool
	small map[uint64][]match
	big   map[string][]match
}

func newBuckets(njoin int) *buckets {
	b := &buckets{wide: njoin > 2}
	if b.wide {
		b.big = map[string][]match{}
	} else {
		b.small = map[uint64][]match{}
	}
	return b
}

func packPair(ids []uint32) uint64 {
	var k uint64
	for _, id := range ids { // 0, 1 or 2 ids
		k = k<<32 | uint64(id)
	}
	return k
}

func packWide(key []byte, ids []uint32) []byte {
	for _, id := range ids {
		key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return key
}

func (b *buckets) put(ids []uint32, m match) {
	if b.wide {
		k := string(packWide(nil, ids))
		b.big[k] = append(b.big[k], m)
	} else {
		k := packPair(ids)
		b.small[k] = append(b.small[k], m)
	}
}

type hashEval struct {
	c     *compiledCQ
	opts  Options
	order []int
	varAt []varRef // per dense var index
	bound []bool   // per dense var index: registered in varAt yet?
}

// hashJoin evaluates the conjunct set-at-a-time and accumulates every
// satisfying assignment's head tuple and monomial into res.
func (c *compiledCQ) hashJoin(res *Result, opts Options) {
	if c.empty {
		return
	}
	e := &hashEval{
		c:     c,
		opts:  opts,
		order: c.planOrder(),
		varAt: make([]varRef, len(c.vars)),
		bound: make([]bool, len(c.vars)),
	}
	e.run(res)
}

// workers returns how many goroutines may share a probe or emit of n
// items, per the configured parallelism and threshold; 1 means stay
// sequential.
func (e *hashEval) workers(n int) int {
	thr := e.opts.ParallelThreshold
	if thr <= 0 {
		thr = parallelProbeThreshold
	}
	par := e.opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if n < thr || par <= 1 {
		return 1
	}
	if par > n {
		par = n
	}
	return par
}

func (e *hashEval) run(res *Result) {
	diseqStep := e.scheduleDiseqs()
	cur := []*hjNode{{}}
	for step, atomIdx := range e.order {
		joinRefs, bk := e.buildSide(step, e.c.atoms[atomIdx])
		cur = e.probe(step, cur, joinRefs, bk, diseqStep)
		if len(cur) == 0 {
			return
		}
	}
	e.emit(res, cur)
}

// buildSide scans the atom's relation for rows compatible with its
// constants and intra-atom repeated variables, hashing admitted rows by
// the ids of the columns whose variables are already bound. It registers
// the atom's new variables in e.varAt and returns the join-variable
// references plus the buckets.
func (e *hashEval) buildSide(step int, at iAtom) ([]varRef, *buckets) {
	firstCol := make([]int, len(at.args))
	seenAt := make(map[int]int, len(at.args)) // var index -> first column
	var joinRefs []varRef
	var joinCols, newCols []int
	nnew := 0
	for i, a := range at.args {
		firstCol[i] = i
		if a.isConst {
			continue
		}
		if j, ok := seenAt[a.v]; ok {
			firstCol[i] = j
			continue
		}
		seenAt[a.v] = i
		if e.bound[a.v] {
			joinRefs = append(joinRefs, e.varAt[a.v])
			joinCols = append(joinCols, i)
		} else {
			e.varAt[a.v] = varRef{step: step, idx: nnew}
			e.bound[a.v] = true
			nnew++
			newCols = append(newCols, i)
		}
	}

	bk := newBuckets(len(joinCols))
	keyIDs := make([]uint32, len(joinCols))
	rows := e.candidateRows(at)
	// One flat id arena for every admitted row's projection instead of one
	// tiny slice per row; capacity covers all candidates, so appends never
	// reallocate and the sub-slices stay valid.
	var flat []uint32
	if len(newCols) > 0 {
		flat = make([]uint32, 0, len(rows)*len(newCols))
	}
	for _, rowIdx := range rows {
		row := at.rel.RowIDs(rowIdx)
		ok := true
		for i, a := range at.args {
			if a.isConst {
				if row[i] != a.val {
					ok = false
					break
				}
			} else if firstCol[i] != i && row[i] != row[firstCol[i]] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for i, c := range joinCols {
			keyIDs[i] = row[c]
		}
		m := match{tag: at.rel.Rows()[rowIdx].Tag}
		if len(newCols) > 0 {
			start := len(flat)
			for _, c := range newCols {
				flat = append(flat, row[c])
			}
			m.vals = flat[start:len(flat):len(flat)]
		}
		bk.put(keyIDs, m)
	}
	return joinRefs, bk
}

// candidateRows narrows the build scan by the per-column id index on the
// first constant argument, falling back to a full scan.
func (e *hashEval) candidateRows(at iAtom) []int {
	for col, a := range at.args {
		if a.isConst {
			return at.rel.RowsWithID(col, a.val)
		}
	}
	all := make([]int, at.rel.Len())
	for i := range all {
		all[i] = i
	}
	return all
}

// probe extends every partial assignment in cur through the buckets,
// fanning the work across workers when the step is large enough. Chunks
// are contiguous and concatenated in order, so the resulting slice is
// exactly what a sequential probe would have produced.
func (e *hashEval) probe(step int, cur []*hjNode, joinRefs []varRef, bk *buckets, diseqStep []int) []*hjNode {
	nw := e.workers(len(cur))
	if nw == 1 {
		return e.probeChunk(step, cur, joinRefs, bk, diseqStep)
	}
	parts := make([][]*hjNode, nw)
	var wg sync.WaitGroup
	chunk := (len(cur) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(cur) {
			hi = len(cur)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = e.probeChunk(step, cur[lo:hi], joinRefs, bk, diseqStep)
		}(w, lo, hi)
	}
	wg.Wait()
	next := parts[0]
	for _, p := range parts[1:] {
		next = append(next, p...)
	}
	return next
}

func (e *hashEval) probeChunk(step int, cur []*hjNode, joinRefs []varRef, bk *buckets, diseqStep []int) []*hjNode {
	next := make([]*hjNode, 0, len(cur))
	keyIDs := make([]uint32, len(joinRefs))
	var wideKey []byte
	// Nodes come from block-allocated arenas — one malloc per 512 nodes
	// instead of per node. Pointers into a full block stay valid when the
	// next block is started, and each chunk has its own arena, so worker
	// goroutines never share one.
	var arena []hjNode
	for _, cn := range cur {
		for i, ref := range joinRefs {
			keyIDs[i] = cn.value(step-1, ref)
		}
		var ms []match
		if bk.wide {
			wideKey = packWide(wideKey[:0], keyIDs)
			ms = bk.big[string(wideKey)]
		} else {
			ms = bk.small[packPair(keyIDs)]
		}
		for _, m := range ms {
			if len(arena) == cap(arena) {
				arena = make([]hjNode, 0, 512)
			}
			arena = append(arena, hjNode{parent: cn, vals: m.vals, tag: m.tag})
			node := &arena[len(arena)-1]
			if !e.diseqsHold(diseqStep, step, node) {
				arena = arena[:len(arena)-1] // slot reused by the next match
				continue
			}
			next = append(next, node)
		}
	}
	return next
}

// emit materializes the final assignments into res, splitting across
// workers with per-worker partial results when the set is large. The
// partials are merged in chunk order and polynomial addition is
// commutative with a canonical representation, so the merged result is
// byte-identical to a sequential emit.
func (e *hashEval) emit(res *Result, cur []*hjNode) {
	nw := e.workers(len(cur))
	if nw == 1 {
		e.emitChunk(res, cur)
		return
	}
	parts := make([]*Result, nw)
	var wg sync.WaitGroup
	chunk := (len(cur) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(cur) {
			hi = len(cur)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = newResult()
			e.emitChunk(parts[w], cur[lo:hi])
		}(w, lo, hi)
	}
	wg.Wait()
	for _, p := range parts {
		if p != nil {
			res.merge(p)
		}
	}
}

func (e *hashEval) emitChunk(res *Result, cur []*hjNode) {
	c := e.c
	last := len(e.order) - 1
	headRefs := make([]varRef, len(c.head))
	for i, a := range c.head {
		if !a.isConst {
			headRefs[i] = e.varAt[a.v]
		}
	}
	tags := make([]string, len(e.order))
	for _, n := range cur {
		t := make(db.Tuple, len(c.head))
		for i, a := range c.head {
			if a.isConst {
				t[i] = c.q.Head.Args[i].Name
			} else {
				t[i] = c.syms.Value(n.value(last, headRefs[i]))
			}
		}
		for i, p := len(tags)-1, n; i >= 0; i, p = i-1, p.parent {
			tags[i] = p.tag
		}
		res.addWitness(t, semiring.MonomialFromVars(tags))
	}
}

// scheduleDiseqs maps each compiled disequality to the earliest plan step
// after which both sides are decided (const-const pairs were decided at
// compile time and never reach here).
func (e *hashEval) scheduleDiseqs() []int {
	boundAt := make([]int, len(e.c.vars))
	for i := range boundAt {
		boundAt[i] = -1
	}
	for step, atomIdx := range e.order {
		for _, a := range e.c.atoms[atomIdx].args {
			if !a.isConst && boundAt[a.v] < 0 {
				boundAt[a.v] = step
			}
		}
	}
	stepOf := make([]int, len(e.c.diseqs))
	for i, dq := range e.c.diseqs {
		step := -1
		for _, side := range dq {
			if !side.isConst && boundAt[side.v] > step {
				step = boundAt[side.v]
			}
		}
		stepOf[i] = step
	}
	return stepOf
}

// diseqsHold checks the disequalities scheduled at this step against a
// freshly extended assignment. An uninterned constant side (invalidID)
// never equals a bound variable's id, so the integer compare is exact.
func (e *hashEval) diseqsHold(diseqStep []int, step int, n *hjNode) bool {
	for i, dq := range e.c.diseqs {
		if diseqStep[i] != step {
			continue
		}
		var l, r uint32
		if dq[0].isConst {
			l = dq[0].val
		} else {
			l = n.value(step, e.varAt[dq[0].v])
		}
		if dq[1].isConst {
			r = dq[1].val
		} else {
			r = n.value(step, e.varAt[dq[1].v])
		}
		if l == r {
			return false
		}
	}
	return true
}
