// Package provmin is a Go implementation of "On Provenance Minimization"
// (Amsterdamer, Deutch, Milo, Tannen — PODS 2011).
//
// The library computes the *core provenance* of query results: the part of
// the N[X] provenance polynomial that appears in the evaluation of every
// query equivalent to the one at hand. It provides:
//
//   - a calculus of conjunctive queries with disequalities and unions
//     thereof (CQ, CQ≠, cCQ≠, UCQ≠), with a Datalog-like parser;
//   - provenance-aware evaluation over annotated databases (provenance
//     semirings, Green–Karvounarakis–Tannen);
//   - the terseness order on provenance polynomials and query results
//     (Def. 2.15 / 2.17 of the paper);
//   - standard (Chandra–Merlin / Klug / Sagiv–Yannakakis) and
//     provenance-aware minimization, including the MinProv algorithm
//     (Algorithm 1) that computes a p-minimal equivalent query realizing
//     the core provenance;
//   - direct core computation from a provenance polynomial alone — without
//     rewriting or re-evaluating the query (Theorem 5.1);
//   - downstream provenance consumers (probabilistic query answering, trust
//     assessment, deletion propagation) that demonstrate the compactness
//     payoff of core provenance.
//
// # Quick start
//
//	q := provmin.MustParseQuery("ans(x) :- R(x,y), R(y,x)")
//	d := provmin.NewInstance()
//	d.MustAdd("R", "s1", "a", "a")
//	d.MustAdd("R", "s2", "a", "b")
//	d.MustAdd("R", "s3", "b", "a")
//
//	res, _ := provmin.Eval(provmin.SingleQuery(q), d)
//	for _, t := range res.Tuples() {
//		fmt.Println(t.Tuple, t.Prov) // (a) s1^2 + s2*s3 ...
//	}
//
//	pmin := provmin.MinProv(provmin.SingleQuery(q)) // p-minimal equivalent
//	core, _ := provmin.CorePolynomial(resProv, d, tuple, q.Consts())
//
// # Service layer
//
// Beyond the one-shot functions above, the package exposes a long-lived
// service core (see engine.go): NewEngine returns a concurrency-safe
// [Engine] that hosts named annotated instances behind read-write locks,
// bounds how many evaluations run at once, batches tuple ingest, and
// keeps an LRU cache from canonical query forms to their p-minimal
// equivalents — so repeated core-provenance requests skip MinProv, the
// worst-case-exponential step. NewServerHandler wraps an Engine in the
// provmind HTTP/JSON API (instances, query, core, prob, trust, deletion,
// metrics), which cmd/provmind serves as a standalone process.
//
//	eng := provmin.NewEngine(provmin.EngineConfig{})
//	defer eng.Close()
//	info, _ := eng.CreateInstance("R r1 a a\nR r2 a b\nR r3 b a")
//	out, _ := eng.Core(ctx, info.ID, provmin.MustParseUnion("ans(x) :- R(x,y), R(y,x)"))
//	// out.Result holds core provenance; out.CacheHit reports a cache hit.
//
// The cmd/ directory ships a CLI (cmd/provmin), the provmind server
// (cmd/provmind), a replay of every worked example in the paper
// (cmd/paperexamples) and the benchmark table generator (cmd/benchtables).
// README.md describes the system and its layout; cmd/benchtables prints the
// paper-versus-measured tables.
package provmin

import (
	"provmin/internal/db"
	"provmin/internal/direct"
	"provmin/internal/eval"
	"provmin/internal/hom"
	"provmin/internal/minimize"
	"provmin/internal/order"
	"provmin/internal/query"
	"provmin/internal/semiring"
)

// Re-exported core types. The aliases expose the internal implementation
// packages through one import path while keeping the module layout private.
type (
	// Query is a conjunctive query with disequalities (CQ≠, Def. 2.1).
	Query = query.CQ
	// Union is a union of conjunctive queries (UCQ≠, Def. 2.4).
	Union = query.UCQ
	// Arg is an atom argument: variable or constant.
	Arg = query.Arg
	// Atom is a relational atom.
	Atom = query.Atom
	// Diseq is a disequality atom.
	Diseq = query.Diseq
	// Class identifies a query class of the paper's Table 1.
	Class = query.Class

	// Instance is an annotated database instance (a set of N[X]-relations).
	Instance = db.Instance
	// Relation is one annotated relation.
	Relation = db.Relation
	// Tuple is a database tuple.
	Tuple = db.Tuple

	// Monomial is a product of annotation variables.
	Monomial = semiring.Monomial
	// Polynomial is an N[X] provenance polynomial.
	Polynomial = semiring.Polynomial
	// WitnessSet is a Why-provenance witness family.
	WitnessSet = semiring.WitnessSet

	// Result is an annotated query result.
	Result = eval.Result
	// OutTuple is one output tuple with its provenance.
	OutTuple = eval.OutTuple

	// Relationship classifies two polynomials or results under the
	// terseness order.
	Relationship = order.Relation

	// MinProvSteps records the intermediate queries of Algorithm 1.
	MinProvSteps = minimize.Steps
)

// Query classes (Table 1).
const (
	ClassCQ      = query.ClassCQ
	ClassCQNeq   = query.ClassCQNeq
	ClassCCQNeq  = query.ClassCCQNeq
	ClassUCQNeq  = query.ClassUCQNeq
	ClassCUCQNeq = query.ClassCUCQNeq
)

// Order relation outcomes.
const (
	Incomparable = order.Incomparable
	Less         = order.Less
	Equal        = order.Equal
	Greater      = order.Greater
)

// ParseQuery parses one rule, e.g. "ans(x) :- R(x,y), S(y,'c'), x != y".
func ParseQuery(rule string) (*Query, error) { return query.Parse(rule) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(rule string) *Query { return query.MustParse(rule) }

// ParseUnion parses a union of rules separated by newlines or semicolons.
func ParseUnion(text string) (*Union, error) { return query.ParseUnion(text) }

// MustParseUnion is ParseUnion that panics on error.
func MustParseUnion(text string) *Union { return query.MustParseUnion(text) }

// SingleQuery wraps a conjunctive query as a singleton union.
func SingleQuery(q *Query) *Union { return query.Single(q) }

// ClassOf returns the most specific class of a query (Table 1 rows).
func ClassOf(q *Query) Class { return query.ClassOf(q) }

// ClassOfUnion returns the most specific class of a union.
func ClassOfUnion(u *Union) Class { return query.ClassOfUnion(u) }

// NewInstance creates an empty annotated database instance.
func NewInstance() *Instance { return db.NewInstance() }

// ParsePolynomial parses a provenance polynomial, e.g. "2*s1^2*s2 + s3".
func ParsePolynomial(s string) (Polynomial, error) { return semiring.ParsePolynomial(s) }

// MustParsePolynomial is ParsePolynomial that panics on error.
func MustParsePolynomial(s string) Polynomial { return semiring.MustParsePolynomial(s) }

// Eval evaluates a union over an instance, annotating every output tuple
// with its provenance polynomial (Def. 2.12).
func Eval(u *Union, d *Instance) (*Result, error) { return eval.EvalUCQ(u, d) }

// Provenance returns P(t, Q, D) for a single tuple (zero if absent).
func Provenance(u *Union, d *Instance, t Tuple) (Polynomial, error) {
	return eval.Provenance(u, d, t)
}

// MinProv computes a p-minimal equivalent of u in UCQ≠ (Algorithm 1,
// Theorem 4.6): the returned query realizes the core provenance of u on
// every abstractly-tagged database. Worst-case exponential output size
// (Theorem 4.10).
func MinProv(u *Union) *Union { return minimize.MinProv(u) }

// MinProvWithSteps runs Algorithm 1 and returns the intermediate queries of
// its three steps.
func MinProvWithSteps(u *Union) MinProvSteps { return minimize.MinProvSteps(u) }

// StandardMinimize computes a standard-minimal (fewest relational atoms)
// equivalent union, the Chandra–Merlin / Sagiv–Yannakakis baseline that
// Table 1 contrasts p-minimization with.
func StandardMinimize(u *Union) *Union { return minimize.StandardMinimizeUCQ(u) }

// Contained decides u1 ⊆ u2 for UCQ≠ queries.
func Contained(u1, u2 *Union) bool { return minimize.Contained(u1, u2) }

// Equivalent decides u1 ≡ u2 for UCQ≠ queries (Def. 2.8).
func Equivalent(u1, u2 *Union) bool { return minimize.Equivalent(u1, u2) }

// HomomorphismExists reports whether a homomorphism from one conjunctive
// query to another exists (Def. 2.10).
func HomomorphismExists(from, to *Query) bool { return hom.Exists(from, to) }

// Isomorphic reports whether two conjunctive queries are isomorphic.
func Isomorphic(a, b *Query) bool { return hom.Isomorphic(a, b) }

// ComparePolynomials classifies two provenance polynomials under the
// terseness order of Def. 2.15.
func ComparePolynomials(p, q Polynomial) Relationship { return order.Compare(p, q) }

// PolynomialLE reports p ≤ q under the terseness order.
func PolynomialLE(p, q Polynomial) bool { return order.PolyLE(p, q) }

// CompareOnDB evaluates two queries over one instance and classifies their
// annotated results pointwise (the per-database content of ≤_P, Def. 2.17).
func CompareOnDB(q1, q2 *Union, d *Instance) (Relationship, error) {
	return order.CompareOnDB(q1, q2, d)
}

// CoreUpToCoefficients computes the core provenance of a polynomial up to
// monomial multiplicities, in PTIME, from the polynomial alone (Theorem 5.1
// part 1).
func CoreUpToCoefficients(p Polynomial) Polynomial { return direct.CoreUpToCoefficients(p) }

// CorePolynomial computes the exact core provenance of tuple t directly from
// its provenance polynomial, the database and the query's constants —
// without the query itself (Theorem 5.1 part 2). The database must be
// abstractly tagged (Theorem 6.2).
func CorePolynomial(p Polynomial, d *Instance, t Tuple, consts []string) (Polynomial, error) {
	return direct.CoreExact(p, d, t, consts)
}

// Why returns the Why-provenance (witness sets) of a polynomial.
func Why(p Polynomial) WitnessSet { return semiring.Why(p) }

// Trio returns the Trio/lineage form of a polynomial (exponents dropped).
func Trio(p Polynomial) Polynomial { return semiring.Trio(p) }
