// Package serve is the solve-as-a-service engine: a bounded worker pool
// pulling solve requests off a FIFO queue, fronted by a content-addressed
// graph store and a solution cache, with per-request deadlines, live
// round-by-round traces and aggregate metrics fed from the solver's
// Observer event stream.
//
// The engine is transport-agnostic; http.go exposes it over HTTP and
// cmd/mwvc-serve is the binary. The division of labor with the facade is
// strict: the engine never reimplements solving — every request goes
// through mwvc.Solve (registry dispatch, cover verification, certificate
// checking), which is safe for concurrent use; the engine adds admission
// control (backpressure via ErrQueueFull), resource partitioning (Workers
// × SolverParallelism ≈ GOMAXPROCS) and result reuse (the cache keyed by
// the request's SolveParams without its deadline — solves are
// deterministic given a seed, so a cached solution is indistinguishable
// from a fresh one — and each stored graph's kernel, shared by all of its
// fresh solves).
//
// # Pieces
//
//   - Engine (engine.go): queue, worker pool, request lifecycle
//     (queued → running → done|failed, held as one Snapshot per request),
//     per-request observer fan-out.
//   - GraphStore (store.go): graphs keyed by "sha256:" of their canonical
//     serialization (docs/FORMATS.md §content-hash canonicalization), so
//     repeat uploads and solve requests never re-parse an instance. Each
//     stored graph keeps its kernel (mwvc.Kernel): only the first
//     successful solve with reduction on runs the reduction rules, and
//     later solves of the graph take the stored kernel.
//   - Durable store (diskstore.go): with Config.DataDir, uploads are
//     fsynced to disk (atomic temp → rename) before they are
//     acknowledged, and a startup recovery scan rebuilds the index —
//     verifying every file's content hash, quarantining what fails.
//   - HTTP layer (http.go): POST /v1/graphs, POST /v1/solve (sync or
//     async), status polling, SSE traces (each event's data is the
//     solver.Event's own JSON; a coalesced follower streams its leader's
//     events), Prometheus metrics, health.
//   - Metrics (metrics.go): the engine's counters and gauges in
//     Prometheus text form, one row per series, read straight from the
//     counters.
//
// # Robustness
//
// The request path is fault-isolated: a panic anywhere in one request
// fails that request with a typed retryable error (ErrRetryable → 503 +
// Retry-After) and the worker survives. Identical concurrent requests
// coalesce onto one solver execution (the solution-cache key doubles as
// the singleflight key). Under queue pressure, Config.DegradeEnabled
// downgrades eligible requests to the cheapest solver before shedding.
// StartDrain refuses new work (ErrDraining, /healthz 503) while admitted
// solves finish. internal/fault names the injection points a chaos suite
// replays deterministically; DESIGN.md §Fault injection and degradation
// has the full model.
//
// docs/ARCHITECTURE.md walks a request through all of it end to end.
package serve
