// Package db implements annotated relational instances: N[X]-relations in
// the sense of Green et al. 2007 as used by the paper. Every tuple of an
// input relation carries an annotation variable (a tag from X). An instance
// is abstractly tagged when all tags are distinct (§2.3); the general case
// (§6) allows repeated tags.
package db

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Tuple is a database tuple: a fixed-arity list of domain values.
type Tuple []string

// String renders the tuple as "(a,b)".
func (t Tuple) String() string { return "(" + strings.Join(t, ",") + ")" }

// Key returns a canonical map key for the tuple.
func (t Tuple) Key() string { return strings.Join(t, "\x1f") }

// Equal reports component-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Row is a tuple together with its annotation tag.
type Row struct {
	Tuple Tuple
	Tag   string // annotation variable from X
}

// Relation is an annotated relation: an ordered list of tagged tuples with a
// fixed arity. Insertion order is preserved so evaluation results are
// deterministic. Relations belong to an Instance and share its symbol table.
type Relation struct {
	Name  string
	Arity int
	rows  []Row
	byKey map[string]int // tuple key -> row index

	// Interned image of the rows: ids holds each row's tuple as symbol ids,
	// row-major with stride Arity, so the evaluator joins on fixed-width
	// integers; idIndex is the lazily built per-column index keyed by id;
	// sketches are the per-column distinct-count statistics.
	intern   *SymbolTable
	ids      []uint32
	sketches []distinctSketch
	// indexMu guards the lazy build and reads of idIndex, making concurrent
	// read-only use (RowsWithID from parallel evaluations) safe. Mutating
	// methods (Add, Delete) still require external exclusion.
	indexMu sync.Mutex
	idIndex []map[uint32][]int
}

// newRelation creates an empty relation wired to an instance's symbol
// table.
func newRelation(name string, arity int, intern *SymbolTable) *Relation {
	return &Relation{Name: name, Arity: arity, byKey: map[string]int{},
		intern: intern, sketches: make([]distinctSketch, arity)}
}

// Add inserts a tagged tuple. Adding a tuple that already exists replaces
// its tag (relations are sets of tuples, as in the paper). It returns an
// error on arity mismatch.
func (r *Relation) Add(tag string, values ...string) error {
	if len(values) != r.Arity {
		return fmt.Errorf("relation %s: tuple %v has arity %d, want %d", r.Name, values, len(values), r.Arity)
	}
	t := Tuple(values).Clone()
	if i, ok := r.byKey[t.Key()]; ok {
		r.rows[i].Tag = tag // ids and sketches unchanged: same tuple
		return nil
	}
	r.rows = append(r.rows, Row{Tuple: t, Tag: tag})
	r.byKey[t.Key()] = len(r.rows) - 1
	for c, v := range t {
		id := r.intern.Intern(v)
		r.ids = append(r.ids, id)
		r.sketches[c].add(r.intern.Hash(id))
	}
	r.idIndex = nil
	return nil
}

// MustAdd is Add that panics on error; for literal test fixtures.
func (r *Relation) MustAdd(tag string, values ...string) {
	if err := r.Add(tag, values...); err != nil {
		panic(err)
	}
}

// Delete removes a tuple if present and reports whether it was found.
// Used by the deletion-propagation application.
func (r *Relation) Delete(values ...string) bool {
	k := Tuple(values).Key()
	i, ok := r.byKey[k]
	if !ok {
		return false
	}
	r.rows = append(r.rows[:i], r.rows[i+1:]...)
	delete(r.byKey, k)
	for j := i; j < len(r.rows); j++ {
		r.byKey[r.rows[j].Tuple.Key()] = j
	}
	// Splice the row's interned image so ids stays row-aligned. The
	// sketches are monotone and keep counting the deleted value — an upper
	// bound is fine for planning (see stats.go).
	r.ids = append(r.ids[:i*r.Arity], r.ids[(i+1)*r.Arity:]...)
	r.idIndex = nil
	return true
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.rows) }

// Rows returns the rows in insertion order. The slice must not be modified.
func (r *Relation) Rows() []Row { return r.rows }

// Contains reports membership of the tuple.
func (r *Relation) Contains(values ...string) bool {
	_, ok := r.byKey[Tuple(values).Key()]
	return ok
}

// TagOf returns the annotation of the given tuple, or "" if absent.
func (r *Relation) TagOf(values ...string) string {
	if i, ok := r.byKey[Tuple(values).Key()]; ok {
		return r.rows[i].Tag
	}
	return ""
}

// RowIDs returns row i's tuple as symbol ids (stride-Arity view into the
// relation's interned storage). The slice must not be modified.
func (r *Relation) RowIDs(i int) []uint32 {
	return r.ids[i*r.Arity : (i+1)*r.Arity]
}

// RowsWithID returns the indices of rows whose column col holds the value
// with symbol id, in ascending order, using a lazily built per-column
// index; nil when col is out of range. The build is guarded by indexMu so
// that concurrent read-only evaluations (e.g. parallel queries in the
// provmind engine, which hold only a read lock on the instance) can share
// one relation; writers still require external exclusion, as Add/Delete
// mutate rows without this lock.
func (r *Relation) RowsWithID(col int, id uint32) []int {
	if col < 0 || col >= r.Arity {
		return nil
	}
	r.indexMu.Lock()
	if r.idIndex == nil {
		idx := make([]map[uint32][]int, r.Arity)
		for c := 0; c < r.Arity; c++ {
			idx[c] = map[uint32][]int{}
		}
		for i := 0; i < len(r.rows); i++ {
			for c, v := range r.RowIDs(i) {
				idx[c][v] = append(idx[c][v], i)
			}
		}
		r.idIndex = idx
	}
	rows := r.idIndex[col][id]
	r.indexMu.Unlock()
	return rows
}

// Instance is a database instance: a set of annotated relations sharing one
// symbol table.
type Instance struct {
	rels    map[string]*Relation
	order   []string // relation names in creation order
	symbols *SymbolTable
}

// NewInstance creates an empty instance.
func NewInstance() *Instance {
	return &Instance{rels: map[string]*Relation{}, symbols: NewSymbolTable()}
}

// Relation returns the named relation, creating it with the given arity on
// first use. It returns an error if the relation exists with a different
// arity.
func (d *Instance) Relation(name string, arity int) (*Relation, error) {
	if r, ok := d.rels[name]; ok {
		if r.Arity != arity {
			return nil, fmt.Errorf("relation %s has arity %d, requested %d", name, r.Arity, arity)
		}
		return r, nil
	}
	r := newRelation(name, arity, d.symbols)
	d.rels[name] = r
	d.order = append(d.order, name)
	return r, nil
}

// MustRelation is Relation that panics on error.
func (d *Instance) MustRelation(name string, arity int) *Relation {
	r, err := d.Relation(name, arity)
	if err != nil {
		panic(err)
	}
	return r
}

// Add inserts a tagged tuple into the named relation, creating the relation
// on first use with the tuple's arity.
func (d *Instance) Add(rel, tag string, values ...string) error {
	r, err := d.Relation(rel, len(values))
	if err != nil {
		return err
	}
	return r.Add(tag, values...)
}

// MustAdd is Add that panics on error.
func (d *Instance) MustAdd(rel, tag string, values ...string) {
	if err := d.Add(rel, tag, values...); err != nil {
		panic(err)
	}
}

// Lookup returns the named relation or nil.
func (d *Instance) Lookup(name string) *Relation { return d.rels[name] }

// Relations returns the relations in creation order.
func (d *Instance) Relations() []*Relation {
	out := make([]*Relation, len(d.order))
	for i, n := range d.order {
		out[i] = d.rels[n]
	}
	return out
}

// NumTuples returns the total tuple count across relations.
func (d *Instance) NumTuples() int {
	n := 0
	for _, r := range d.rels {
		n += r.Len()
	}
	return n
}

// Tags returns all annotation tags in the instance, sorted.
func (d *Instance) Tags() []string {
	var out []string
	for _, r := range d.Relations() {
		for _, row := range r.Rows() {
			out = append(out, row.Tag)
		}
	}
	sort.Strings(out)
	return out
}

// IsAbstractlyTagged reports whether all tags across the instance are
// pairwise distinct (§2.3).
func (d *Instance) IsAbstractlyTagged() bool {
	seen := map[string]bool{}
	for _, r := range d.rels {
		for _, row := range r.rows {
			if seen[row.Tag] {
				return false
			}
			seen[row.Tag] = true
		}
	}
	return true
}

// ActiveDomain returns the sorted set of values occurring in the instance.
func (d *Instance) ActiveDomain() []string {
	seen := map[string]bool{}
	for _, r := range d.rels {
		for _, row := range r.rows {
			for _, v := range row.Tuple {
				seen[v] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// FactOf returns the relation name and tuple carrying the given tag, used by
// direct minimization (Lemma 5.9) to reconstruct queries from monomials.
// When tags repeat (general annotations) the first match in creation order
// is returned; ok is false if the tag is absent.
func (d *Instance) FactOf(tag string) (rel string, tuple Tuple, ok bool) {
	for _, r := range d.Relations() {
		for _, row := range r.Rows() {
			if row.Tag == tag {
				return r.Name, row.Tuple, true
			}
		}
	}
	return "", nil, false
}

// Retag returns a copy of the instance with fresh distinct tags t1, t2, ...
// and the mapping new-tag -> old-tag. This is the §6 construction used to
// reduce general annotations to the abstractly-tagged case.
func (d *Instance) Retag(prefix string) (*Instance, map[string]string) {
	out := NewInstance()
	mapping := map[string]string{}
	i := 0
	for _, r := range d.Relations() {
		nr := out.MustRelation(r.Name, r.Arity)
		for _, row := range r.Rows() {
			i++
			fresh := fmt.Sprintf("%s%d", prefix, i)
			mapping[fresh] = row.Tag
			nr.MustAdd(fresh, row.Tuple...)
		}
	}
	return out, mapping
}

// Clone returns a deep copy of the instance.
func (d *Instance) Clone() *Instance {
	out := NewInstance()
	for _, r := range d.Relations() {
		nr := out.MustRelation(r.Name, r.Arity)
		for _, row := range r.Rows() {
			nr.MustAdd(row.Tag, row.Tuple...)
		}
	}
	return out
}

// String renders the instance relation by relation for debugging.
func (d *Instance) String() string {
	var b strings.Builder
	for _, r := range d.Relations() {
		fmt.Fprintf(&b, "%s/%d:\n", r.Name, r.Arity)
		for _, row := range r.Rows() {
			fmt.Fprintf(&b, "  %s  [%s]\n", row.Tuple, row.Tag)
		}
	}
	return b.String()
}
