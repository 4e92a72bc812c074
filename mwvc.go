// Package mwvc is a Go reproduction of "A Massively Parallel Algorithm for
// Minimum Weight Vertex Cover" (Ghaffari, Jin, Nilis — SPAA 2020,
// arXiv:2005.10566): a randomized MPC algorithm with near-linear memory per
// machine that computes a (2+ε)-approximate minimum-weight vertex cover in
// O(log log d) rounds, d being the average degree.
//
// This package is the public facade. It re-exports the graph type and
// dispatches one-call solves through the solver registry:
//
//	g := mwvc.RandomGraph(seed, n, avgDegree)
//	sol, err := mwvc.Solve(ctx, g, mwvc.WithAlgorithm(mwvc.AlgoMPC), mwvc.WithEpsilon(0.1))
//	fmt.Println(sol.Weight, sol.CertifiedRatio, sol.Rounds)
//
// Solves are cancellable and deadline-bounded through the context, and
// observable round-by-round through WithObserver — the O(log log d) round
// trajectory the paper is about is exposed as a first-class event stream, not
// just two ints after the fact.
//
// Every solve stages through a Reduce→Solve→Improve→Lift pipeline: weighted
// kernelization rules (internal/reduce) shrink the instance, the selected
// algorithm solves the kernel, an optional anytime local-search stage
// (internal/improve, enabled by WithImprovement) monotonically reduces the
// cover weight under a wall-clock budget, and the cover and certificate are
// lifted back to — and verified against — the original graph with exact
// weight accounting. Reduction defaults to on (see WithoutReduction and
// Solution.Reduction); improvement defaults to off so results stay
// bit-for-bit reproducible (see WithImprovement and Solution.Improvement).
//
// Every algorithm registers itself with internal/solver from its own
// package; the Algorithms list, the Solve dispatch, and the CLI -algo flag
// all derive from that one table. The heavy lifting lives in the internal
// packages (internal/core for the paper's Algorithm 2, internal/centralized
// for Algorithm 1, internal/mpc for the cluster substrate); see DESIGN.md
// for the full inventory.
package mwvc

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/improve"
	"repro/internal/reduce"
	"repro/internal/solver"

	// Each algorithm package registers its solvers from an init function;
	// the facade imports them for that side effect.
	_ "repro/internal/baselines"
	_ "repro/internal/cclique"
	_ "repro/internal/centralized"
	_ "repro/internal/compress"
	_ "repro/internal/core"
	_ "repro/internal/exact"
	_ "repro/internal/pdfast"
)

// Graph is the weighted undirected graph type shared by all algorithms.
type Graph = graph.Graph

// Builder constructs graphs; see NewBuilder.
type Builder = graph.Builder

// Vertex identifies a vertex.
type Vertex = graph.Vertex

// NewBuilder returns a Builder for a graph on n vertices (unit weights by
// default; set weights with SetWeight).
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// ReadGraph parses a graph in either of the repository's text formats
// (docs/FORMATS.md) from a one-shot stream, with ReadGraphFile's reader and
// the whole body as one chunk on the caller's goroutine. For large on-disk
// instances prefer ReadGraphFile, which reads the file on every core.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// ReadGraphFile reads a graph file via the streaming ingestion path, which
// reads the file once, one newline-aligned chunk per goroutine on up to
// GOMAXPROCS goroutines. Each chunk keeps its edge records (8 bytes each)
// until it has placed them in the CSR arrays; beyond those and the final
// graph, per-chunk scratch stays no larger than the file.
func ReadGraphFile(path string) (*Graph, error) { return graph.OpenFile(path) }

// WriteGraph serializes a graph in the repository's canonical text format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// RandomGraph returns an Erdős–Rényi graph with the given expected average
// degree and unit weights; a convenience for examples and quick starts.
func RandomGraph(seed uint64, n int, avgDegree float64) *Graph {
	return gen.GnpAvgDegree(seed, n, avgDegree)
}

// Algorithm names a registered solver.
type Algorithm string

// The built-in algorithms. The constants are conveniences; the authoritative
// list is the registry (Algorithms).
const (
	// AlgoMPC is the paper's contribution: Algorithm 2, the O(log log d)-round
	// MPC simulation (package internal/core).
	AlgoMPC Algorithm = "mpc"
	// AlgoMPCCompress is the round-compressed Algorithm 2: the same sampled
	// phase logic riding on 3 accounted cluster rounds per phase instead of
	// 5, via a single gathered LOCAL simulation per sampled group.
	AlgoMPCCompress Algorithm = "mpc-compress"
	// AlgoCentralized is Algorithm 1 run sequentially with the degree-aware
	// initialization (O(log Δ) iterations).
	AlgoCentralized Algorithm = "centralized"
	// AlgoLocalUniform is Algorithm 1 with the classic uniform initialization
	// (O(log nW) iterations) — the pre-paper state of the art baseline.
	AlgoLocalUniform Algorithm = "local-uniform"
	// AlgoPDFast is the O(m) primal–dual fast-tier sweep (certified
	// 2-approximation, serve degradation default). Its sweep runs on
	// WithParallelism workers, bit-identical at every count.
	AlgoPDFast Algorithm = "pdfast"
	// AlgoBYE is the sequential Bar-Yehuda–Even 2-approximation.
	AlgoBYE Algorithm = "bye"
	// AlgoGreedy is weighted greedy (no constant-factor guarantee).
	AlgoGreedy Algorithm = "greedy"
	// AlgoCongestedClique runs the primal–dual algorithm one-round-per-
	// iteration under congested-clique constraints.
	AlgoCongestedClique Algorithm = "congested-clique"
	// AlgoExact is branch-and-bound (n ≤ 64 only).
	AlgoExact Algorithm = "exact"
)

// Algorithms lists every registered algorithm in display order. The list is
// derived from the solver registry, so it cannot drift from what Solve
// accepts.
func Algorithms() []Algorithm {
	names := solver.Names()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}

// AlgorithmSummary returns the registered one-line description of a, or ""
// for an unknown algorithm.
func AlgorithmSummary(a Algorithm) string {
	reg, ok := solver.Lookup(string(a))
	if !ok {
		return ""
	}
	return reg.Summary
}

// AlgorithmTier returns the registered quality/latency tier of a ("fast",
// "accurate" or "exact"), or "" for an unknown algorithm. The serve layer
// resolves its `tier` request hint against these values.
func AlgorithmTier(a Algorithm) string {
	reg, ok := solver.Lookup(string(a))
	if !ok {
		return ""
	}
	return reg.Tier
}

// AlgorithmHelp renders the registry as flag help text: every algorithm name
// with its tier and one-line summary, in display order.
func AlgorithmHelp() string {
	var b strings.Builder
	for i, reg := range solver.Registrations() {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "  %-17s %-9s %s", reg.Name, reg.Tier, reg.Summary)
	}
	return b.String()
}

// Observer receives solve-progress events; see Event for the stream
// contract. Pass one with WithObserver.
type Observer = solver.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = solver.ObserverFunc

// Event is one solve-progress observation: phase started, round completed,
// phase completed, final phase done — with the active-edge count and the
// running dual total at that point.
type Event = solver.Event

// EventKind tags an Event.
type EventKind = solver.EventKind

// Re-exported event kinds; see internal/solver for the per-kind contract.
const (
	KindPhaseStart   = solver.KindPhaseStart
	KindRound        = solver.KindRound
	KindPhaseEnd     = solver.KindPhaseEnd
	KindFinalPhase   = solver.KindFinalPhase
	KindReduceStart  = solver.KindReduceStart
	KindReduceEnd    = solver.KindReduceEnd
	KindImproveStart = solver.KindImproveStart
	KindImproveStep  = solver.KindImproveStep
	KindImproveEnd   = solver.KindImproveEnd
	KindCompress     = solver.KindCompress
)

// MultiObserver fans events out to several observers in order, skipping nils.
func MultiObserver(obs ...Observer) Observer { return solver.MultiObserver(obs...) }

// Option configures Solve. The zero configuration solves with AlgoMPC at
// ε = 0.1, seed 0, GOMAXPROCS parallelism, practical constants, no observer.
type Option func(*settings)

type settings struct {
	algo   Algorithm
	reduce bool
	kernel *Kernel
	cfg    solver.Config
}

// WithAlgorithm selects the solver; default AlgoMPC.
func WithAlgorithm(a Algorithm) Option {
	return func(s *settings) { s.algo = a }
}

// WithEpsilon sets the accuracy parameter for the primal–dual algorithms
// (certified ratio 2+O(ε)); default 0.1.
func WithEpsilon(eps float64) Option {
	return func(s *settings) { s.cfg.Epsilon = eps }
}

// WithSeed sets the seed driving all randomness; same seed ⇒ same output.
func WithSeed(seed uint64) Option {
	return func(s *settings) { s.cfg.Seed = seed }
}

// WithParallelism bounds the worker goroutines a solve runs at once
// (0 = GOMAXPROCS): the simulated machines of AlgoMPC and AlgoMPCCompress
// and the sweep workers of AlgoPDFast; the sequential algorithms ignore
// it. At 2 or more, a solve without an observer may start beside the
// reduction stage, when only the domination rule could shrink the graph,
// and use one goroutine beyond n until that stage ends. The result is the
// same bit for bit.
func WithParallelism(n int) Option {
	return func(s *settings) { s.cfg.Parallelism = n }
}

// WithPaperConstants selects the literal asymptotic constants of the paper
// for AlgoMPC (see internal/core.ParamsPaper); the default is the practical
// scaling.
func WithPaperConstants() Option {
	return func(s *settings) { s.cfg.PaperConstants = true }
}

// WithObserver streams solve-progress events to obs. Observers are invoked
// synchronously from the solve loop and must be fast. A solve with an
// observer never starts beside the reduction stage, so its events arrive
// in stage order on the calling goroutine: reduce-start and reduce-end
// before any solver event.
func WithObserver(obs Observer) Option {
	return func(s *settings) { s.cfg.Observer = obs }
}

// WithoutReduction skips the kernelization stage, which is on by default:
// the selected algorithm runs on the raw graph, reproducing the
// pre-reduction pipeline bit for bit. Solution.Reduction is nil on this
// path.
func WithoutReduction() Option {
	return func(s *settings) { s.reduce = false }
}

// Kernel is a slot that remembers one graph's reduction, so that repeated
// solves of that graph under any algorithm, seed, ε or budget run the
// kernelization stage once. Pass it with WithKernel. The zero Kernel is
// empty and ready to use; it is safe for concurrent use and must not be
// copied after first use. See internal/solver for the full contract.
type Kernel = solver.Kernel

// WithKernel lets the solve take g's reduction from k, or store it there.
// With k empty, the solve reduces as usual and stores a successful result;
// with k filled, it skips the reduction rules and solves, lifts and
// verifies from the stored kernel, with Solution.Reduction.ReduceNS 0.
// Every other output bit, and every observer event, is the same as
// without the option. A Kernel serves one graph: solving
// another graph through a filled k is an error. The slot keeps the kernel
// alive for as long as k is reachable, which is why Solve keeps none of
// its own. WithoutReduction leaves k untouched.
func WithKernel(k *Kernel) Option {
	return func(s *settings) { s.kernel = k }
}

// WithImprovement enables the anytime local-search improvement stage
// (internal/improve) with the given wall-clock budget: after the selected
// algorithm solves (the kernel of) the instance, redundant-vertex removal
// and weighted two-improvement swaps monotonically reduce the cover weight
// until the budget expires, the context is cancelled, or a local optimum is
// certified. The dual certificate is untouched, so Bound is bitwise
// identical with or without improvement and CertifiedRatio can only
// tighten. Budget expiry and cancellation are not errors — the stage
// returns the best cover reached, always valid and never heavier.
// Exact solves skip the stage (there is nothing to improve).
// A zero or negative budget leaves the stage off, as without the option:
// the solve is bit-for-bit identical and Solution.Improvement is nil.
func WithImprovement(budget time.Duration) Option {
	return func(s *settings) {
		if budget < 0 {
			budget = 0
		}
		s.cfg.ImproveBudget = budget
	}
}

// Solution is the outcome of Solve: the verified cover with its quality
// certificate, which every solve carries. See internal/solver.Result for
// the field-by-field contract; its JSON form is the service's wire format.
type Solution = solver.Result

// ReductionStats is the kernelization accounting attached to a Solution;
// see internal/reduce for the field-by-field contract.
type ReductionStats = reduce.Stats

// ImprovementStats is the anytime-improvement accounting attached to a
// Solution; see internal/improve for the field-by-field contract. Its
// weights refer to the solved instance (the kernel when reduction ran).
type ImprovementStats = improve.Stats

// Solve computes a vertex cover of g with the selected algorithm (default
// AlgoMPC). The context cancels or deadline-bounds the solve: every iterative
// solver loop checks it, and a pre-cancelled context returns ctx.Err()
// without touching the graph.
//
// Solve is safe for concurrent use: any number of goroutines may solve at
// once, including on the same Graph (solvers treat the graph as read-only and
// never mutate it). Each call builds its own solver state — the MPC cluster,
// RNG streams and scratch arenas are all per-solve — and the registry itself
// is read-locked, so concurrent solves share nothing mutable. Observers are
// per-call: an Observer passed to one Solve sees only that solve's events,
// invoked synchronously on that call's goroutine (an observer shared across
// concurrent solves must itself be concurrency-safe). Total CPU is
// bounded per call via WithParallelism, plus one goroutine while the
// reduction stage runs beside an observer-free solve; concurrent callers
// running heavy algorithms should split GOMAXPROCS between them (as
// internal/serve does).
func Solve(ctx context.Context, g *Graph, opts ...Option) (*Solution, error) {
	if g == nil {
		return nil, fmt.Errorf("mwvc: nil graph")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := settings{algo: AlgoMPC, reduce: true, cfg: solver.Config{Epsilon: 0.1}}
	for _, opt := range opts {
		opt(&s)
	}
	if s.cfg.Epsilon == 0 {
		s.cfg.Epsilon = 0.1
	}
	reg, ok := solver.Lookup(string(s.algo))
	if !ok {
		return nil, fmt.Errorf("mwvc: unknown algorithm %q (have: %s)", s.algo, strings.Join(solver.Names(), ", "))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := solver.Pipeline{Solver: reg.Solver, Reduce: s.reduce, Config: s.cfg, Kernel: s.kernel}
	return p.Run(ctx, g)
}
