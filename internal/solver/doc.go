// Package solver defines the pluggable-solver contract shared by every
// algorithm package in the repository and the registry the public facade
// dispatches through.
//
// Each algorithm package (core, compress, centralized, pdfast, baselines,
// cclique, exact) registers a named Solver from an init function in its
// register.go; the facade (package mwvc), the CLI -algo flag, and the
// Algorithms() listing all derive from the one registration table, so they
// cannot drift. Config carries the cross-algorithm parameters (ε, seed,
// parallelism, constants preset); Outcome is what a solver returns before
// the facade verifies it.
//
// Pipeline stages every facade solve: Reduce (weighted kernelization,
// internal/reduce) → Solve (the registered algorithm, on the kernel) →
// Lift (cover back to original ids) → Verify (the cover against the
// original graph, the duals on the solved instance, and for a solver that
// returns none, the duals of verify.BarYehudaEven there). With reduction
// disabled the pipeline is the direct solve path bit for bit; with it
// enabled, Result.Reduction carries the kernel stats. Result is the
// facade's Solution.
//
// When only the domination rule could shrink the input
// (reduce.OnlyDomination), no observer is attached and Parallelism allows
// two goroutines, the pipeline starts the solve on the input beside
// reduce.Run: the overlap. Reduce reports its first rule application at
// once; the pipeline then cancels the overlap, waits for it and solves
// the kernel. If nothing reduces, the overlap made exactly the call the
// solve stage would make next, so its result is used and every output bit
// is the same as solving after reduce.
//
// A Kernel slot, set as Pipeline.Kernel, keeps one graph's reduction for
// the runs after the first: a caller that solves one graph many times
// (the solve service does, under many seeds and algorithms) reduces it
// once. The caller owns the slot and so decides how long the kernel stays
// in memory; the pipeline itself keeps nothing between runs.
//
// The package sits below every algorithm package (it imports only
// internal/graph, internal/reduce and internal/verify), which is what lets
// the algorithm packages both implement the interface and emit Observer
// events without import cycles.
//
// # Observer stream
//
// Solvers report progress through the Observer/Event stream defined here:
// phase starts and ends, per-round active-edge counts, the running dual
// bound. The same events back `cmd/mwvc -trace`, the solve service's SSE
// trace endpoint, and the experiment tables — one instrumentation point,
// three consumers. See docs/ARCHITECTURE.md for where the registry sits in
// the system.
package solver
