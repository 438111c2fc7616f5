// Package lockdiscipline encodes the engine's lock ordering as a static
// check.
//
// # Invariant
//
// The engine's locks form a strict hierarchy, documented in the
// internal/engine package comment:
//
//	closeMu (1) -> registry shard mu (2) -> instance mu (3) -> batcher mu (4)
//
// A goroutine may only acquire a lock whose level is strictly greater
// than every lock it already holds. Acquiring downward (or re-acquiring
// the same level) is the deadlock shape that killed the v3 snapshot
// writer: two goroutines interleaving shard->instance and
// instance->shard acquisition.
//
// # Rule
//
// Lock fields opt in with a directive on the struct field:
//
//	mu sync.RWMutex //provlint:lockorder 2
//
// For every function in the analyzed package, the analyzer walks the
// body in source order, tracking the multiset of annotated levels held:
//
//   - Lock/RLock on an annotated field while a level >= its own is held
//     is flagged (out-of-order acquisition).
//   - A call to a same-package function that (transitively, via an
//     intra-package call-graph fixpoint) acquires a level <= a currently
//     held level is flagged at the call site.
//   - A `go f()` statement does not propagate f's acquisitions to the
//     spawner: the goroutine takes its locks on its own stack.
//   - Lock/RLock on an annotated field with no later Unlock/RUnlock of
//     the same receiver expression in the same function (deferred counts)
//     is flagged — the caller-must-unlock pattern is not used in this
//     codebase, so a missing unlock is a leak.
//
// The scan is path-insensitive: statements are considered in source
// order regardless of branching. That over-approximates "held" across
// if/else arms that lock and unlock symmetrically; such code should be
// restructured or carry a suppression explaining why the paths are
// exclusive.
//
// # Suppression
//
//	//lint:ignore provlint/lockdiscipline <reason>
package lockdiscipline
