// Package lint implements the smtfetch invariants-as-lints analyzer suite:
// custom go/analysis analyzers that machine-check the simulator's
// foundational guarantees at the diff, instead of trusting runtime panics
// and reviewer vigilance to catch violations after the fact.
//
// The simulator's headline properties are:
//
//   - bit-identical determinism: equal (config, workload, seed) always
//     produces a byte-identical result document. The content-keyed result
//     cache and the seed-paired compare gate are both built on it.
//   - a 0 allocs/op cycle loop: the steady-state hot path (core.Cycle and
//     everything it reaches) performs no heap allocation, enforced after
//     the fact by the CI allocs-per-op bench gate.
//   - pooled-object ownership: pipeline.UOp and ftq.Request are pooled
//     with identity-validated free lists; constructing one outside its
//     pool, or retaining one outside a documented owner structure,
//     corrupts the free-list invariants in ways the runtime checks only
//     catch when the corrupted path executes.
//
// Three analyzers mirror those invariants:
//
//   - poolown: pooled types may only be constructed by their pool owners,
//     and pooled pointers may not be retained in globals, channels, maps,
//     or struct slices outside annotated owner structures. It mechanizes
//     the lifetime rules in the internal/ftq package comment and the
//     identity-validated free lists in internal/core.
//   - zeroalloc: functions annotated //smtfetch:hotpath may not contain
//     allocating constructs, and may only call simulator functions that
//     are themselves annotated — so the hotpath property is closed over
//     the static call graph that core.Cycle reaches. The companion escape
//     gate (internal/lint/escape) cross-checks the compiler's actual
//     escape-analysis verdicts against a checked-in allowlist.
//   - determinism: simulator packages may not read wall clocks, global
//     randomness, the environment, or spawn goroutines, and may not
//     iterate maps except at sites annotated as commutative.
//
// # Directives
//
// The analyzers are driven by comment directives (same syntax family as
// //go:build — no space after //):
//
//	//smtfetch:hotpath
//	    On a function declaration: the function is on the cycle-loop hot
//	    path. zeroalloc checks its body and its callees.
//	//smtfetch:poolowner
//	    On a function: it may construct pooled types (it is pool/free-list
//	    machinery). On a struct type: it is a documented owner structure
//	    and may retain pooled pointers in slice/map fields.
//	//smtfetch:allowalloc <why>
//	    On or immediately above a line inside a hotpath function: the
//	    flagged construct is accepted (e.g. an append into a buffer
//	    pre-sized to a hard architectural bound). The reason is mandatory.
//	//smtfetch:allowcold <why>
//	    On or immediately above a call line: the hotpath function may call
//	    this non-hotpath simulator function. The reason is mandatory.
//	//smtfetch:commutative <why>
//	    On or immediately above a range-over-map: iteration order provably
//	    does not influence simulated state or output. The reason is
//	    mandatory.
//
// A line directive (allowalloc, allowcold, commutative, and statecov's
// transient and keycov's nonsemantic) covers the line it trails, or the
// line below when the comment stands alone on its line. A directive
// trailing one field or statement never covers the next.
//
// Test files (_test.go) are exempt from all three analyzers: tests build
// fixtures by hand on purpose, and the runtime identity checks still
// guard them.
//
// The suite is compiled into cmd/smtfetch-lint and always runs as a go
// vet -vettool: the standalone smtfetch-lint ./... runs go vet with
// itself as the tool and rewrites vet's -json findings.
package lint
