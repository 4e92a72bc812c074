// Package centralized implements Algorithm 1 of the paper: the generic
// centralized/LOCAL primal–dual scheme for (2+ε)-approximate minimum-weight
// vertex cover.
//
// The algorithm maintains dual variables x_e forming a fractional matching.
// Every vertex is active or frozen. Each iteration t:
//
//  1. every active vertex v with y_{v,t} = Σ_{e∋v} x_{e,t} ≥ T_{v,t}·w(v)
//     freezes, together with its incident edges;
//  2. every still-active edge multiplies its weight by 1/(1−ε).
//
// Frozen vertices form the cover; weak LP duality (Lemma 3.2) certifies the
// (2+O(ε)) ratio (Proposition 3.3).
//
// The same code serves five roles in this repository: the paper's final
// "solve the remainder on one machine" phase (Algorithm 2 Line 3, run on the
// residual graph that package core gathers, with residual weights as vertex
// weights); each simulation machine's I iterations on its partition class
// (Algorithm 2 Line 2g, with the biased estimator folded into the
// threshold); the centralized reference run that the MPC simulation is
// coupled against in the Lemma 4.6 experiments; the O(log Δ) / O(log nW)
// LOCAL baselines (one iteration = one round); and the approximation-quality
// workhorse for small instances. Every vertex of the instance starts
// active: a caller with a residual instance passes it as a Graph.
package centralized

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/solver"
)

// InitPolicy selects the initial fractional matching {x_{e,0}}.
type InitPolicy int

const (
	// InitDegreeAware is the paper's initialization (Section 3.2):
	// x_(u,v) = min{w(u)/d(u), w(v)/d(v)}, where d counts active neighbors.
	// Proposition 3.4: termination within O(log Δ) iterations.
	InitDegreeAware InitPolicy = iota
	// InitUniform is the classic initialization x_e = w_min/n. Termination
	// needs O(log(n·W/w_min)) iterations, i.e. it degrades with the weight
	// range — exactly the behaviour experiment E5 measures.
	InitUniform
)

// String returns the policy's name: "degree-aware", "uniform", or
// "InitPolicy(n)" for a value outside the two.
func (p InitPolicy) String() string {
	switch p {
	case InitDegreeAware:
		return "degree-aware"
	case InitUniform:
		return "uniform"
	default:
		return fmt.Sprintf("InitPolicy(%d)", int(p))
	}
}

// ThresholdFunc returns the freeze threshold T_{v,t} ∈ [1−4ε, 1−2ε] for
// vertex v at iteration t. Vertices compare y_{v,t} against T_{v,t}·w(v).
type ThresholdFunc func(v graph.Vertex, t int) float64

// RandomThresholds returns the paper's choice: T_{v,t} drawn independently
// and uniformly from [1−4ε, 1−2ε], realized as a pure function of
// (seed, v, t) so coupled runs see identical draws.
func RandomThresholds(seed uint64, epsilon float64) ThresholdFunc {
	lo, hi := 1-4*epsilon, 1-2*epsilon
	return func(v graph.Vertex, t int) float64 {
		return rng.UniformAt(seed, lo, hi, 'T', uint64(v), uint64(t))
	}
}

// FixedThreshold returns the deterministic threshold 1−3ε for every vertex
// and iteration. The paper needs randomness to decorrelate simulation errors
// (see [GGK+18] §4.2); this is the ablation knob for experiment E10.
func FixedThreshold(epsilon float64) ThresholdFunc {
	th := 1 - 3*epsilon
	return func(graph.Vertex, int) float64 { return th }
}

// Options configures a run of Algorithm 1.
type Options struct {
	// Epsilon is the accuracy parameter ε ∈ (0, 1/8]; the returned cover has
	// weight ≤ (2+10ε)·OPT (Proposition 3.3).
	Epsilon float64
	// Init selects the initial fractional matching. Ignored if the instance
	// supplies explicit X0.
	Init InitPolicy
	// Threshold supplies T_{v,t}. If nil, RandomThresholds(Seed, Epsilon).
	Threshold ThresholdFunc
	// Seed feeds the default threshold function.
	Seed uint64
	// StopAfter, when positive, runs exactly StopAfter iterations: the run
	// ends there even if active edges remain (no error), and it goes on
	// drawing thresholds after the last active edge froze, so a vertex whose
	// edges are all frozen can still freeze. This is Algorithm 2's Line 2g,
	// "for t = 0..I−1" on a machine's class, and how the Lemma 4.6 coupling
	// runs the centralized algorithm "for I iterations on the graph induced
	// by V^high". 0 runs until no edge is active.
	StopAfter int
	// RecordTrace, when set, stores y_{v,t} for every vertex and iteration
	// (O(n·T) memory) — needed by the Lemma 4.6 coupling experiments.
	RecordTrace bool
	// Observer, when non-nil, receives one KindRound event per executed
	// iteration (iteration = communication round in the LOCAL reading), so
	// the round-event count equals Result.Iterations.
	Observer solver.Observer
}

// Graph is the instance structure Run reads: vertex weights, the flat
// endpoint array (edge e joins EdgeEndpoints()[2e] and [2e+1]), and per-vertex
// rows in which Neighbors and IncidentEdges are slot-aligned. Run's float
// sums follow the edge ids and the row order. *graph.Graph satisfies it;
// package core's simulation machines pass their partition classes without
// building a graph.
type Graph interface {
	NumVertices() int
	NumEdges() int
	Weights() []float64
	EdgeEndpoints() []graph.Vertex
	Neighbors(v graph.Vertex) []graph.Vertex
	IncidentEdges(v graph.Vertex) []graph.EdgeID
}

// Instance is a problem: a graph whose vertex weights are the weights to
// cover, and optionally an explicit initial matching. Every vertex starts
// active.
type Instance struct {
	G  Graph
	X0 []float64 // nil ⇒ derived from Options.Init
}

// Result is the outcome of a run.
type Result struct {
	// Cover[v] reports whether v was frozen (selected into the cover).
	Cover []bool
	// X holds the final dual variables (a feasible fractional matching).
	X []float64
	// FreezeIter[v] is the iteration at which v froze, or -1. An edge froze
	// with the earlier of its endpoints.
	FreezeIter []int
	// Iterations is the number of executed iterations of the main loop
	// (equivalently: rounds when the algorithm is read as a LOCAL/PRAM
	// baseline, one iteration per communication round).
	Iterations int
	// YTrace[t][v] is y_{v,t} when Options.RecordTrace is set, else nil.
	// It has Iterations+1 entries: one per executed iteration plus a final
	// snapshot of the state after the last growth step.
	YTrace [][]float64
}

// DeriveX0 computes the initial fractional matching on g per the policy.
// On a residual graph the degrees are residual degrees, the paper's
// convention (Remark 4.2).
func DeriveX0(g Graph, policy InitPolicy) ([]float64, error) {
	w := g.Weights()
	ep := g.EdgeEndpoints()
	x0 := make([]float64, g.NumEdges())
	switch policy {
	case InitDegreeAware:
		// w(v)/d(v) once per vertex; an isolated vertex's +Inf is never read.
		share := make([]float64, len(w))
		for v := range share {
			share[v] = w[v] / float64(len(g.Neighbors(graph.Vertex(v))))
		}
		for e := range x0 {
			x0[e] = min(share[ep[2*e]], share[ep[2*e+1]])
		}
	case InitUniform:
		// x_e = w_min/n is feasible: Σ_{e∋v} x_e ≤ d(v)·w_min/n ≤ w_min ≤ w(v).
		if len(w) == 0 {
			return x0, nil
		}
		base := slices.Min(w) / float64(len(w))
		for e := range x0 {
			x0[e] = base
		}
	default:
		return nil, fmt.Errorf("centralized: unknown init policy %v", policy)
	}
	return x0, nil
}

// Run executes Algorithm 1 on the instance. The context is checked once per
// iteration; cancellation ends the run with ctx.Err().
func Run(ctx context.Context, inst Instance, opts Options) (*Result, error) {
	g := inst.G
	if g == nil {
		return nil, errors.New("centralized: nil graph")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Epsilon <= 0 || opts.Epsilon > 0.125 {
		return nil, fmt.Errorf("centralized: epsilon %v out of (0, 0.125]", opts.Epsilon)
	}
	n, m := g.NumVertices(), g.NumEdges()
	w := g.Weights()

	// x is DeriveX0's fresh vector; a caller's X0 is copied, never written.
	x := inst.X0
	if x == nil {
		var err error
		if x, err = DeriveX0(g, opts.Init); err != nil {
			return nil, err
		}
	} else if len(x) != m {
		return nil, fmt.Errorf("centralized: X0 length %d, want %d", len(x), m)
	} else {
		x = slices.Clone(x)
	}

	threshold := opts.Threshold
	if threshold == nil {
		threshold = RandomThresholds(opts.Seed, opts.Epsilon)
	}

	growth := 1 / (1 - opts.Epsilon)

	// The incremental incident sums:
	// yActive[v] = Σ over active incident edges of the *current* x_e;
	// yFrozen[v] = Σ over frozen incident edges of their final x_e.
	ep := g.EdgeEndpoints()
	yActive := make([]float64, n)
	yFrozen := make([]float64, n)
	maxRatio := 1.0
	for e, xe := range x {
		u, v := ep[2*e], ep[2*e+1]
		if !(xe > 0) {
			return nil, fmt.Errorf("centralized: initial x[%d] = %v, want positive", e, xe)
		}
		yActive[u] += xe
		yActive[v] += xe
		if r := min(w[u], w[v]) / xe; r > maxRatio {
			maxRatio = r
		}
	}
	for v := 0; v < n; v++ {
		if yActive[v] > w[v]*(1+1e-9) {
			return nil, fmt.Errorf("centralized: initial matching infeasible at vertex %d: %v > %v", v, yActive[v], w[v])
		}
	}

	// The loop's safety net: an active edge e=(u,v) reaches
	// x_e ≥ min(w(u), w(v)) after at most log_growth(maxRatio) iterations,
	// at which point an endpoint must have frozen (its threshold is at most
	// (1−2ε) < 1). +3 for slack.
	maxIter := int(math.Ceil(math.Log(maxRatio)/math.Log(growth))) + 3

	res := &Result{
		Cover:      make([]bool, n),
		FreezeIter: make([]int, n),
	}
	for v := range res.FreezeIter {
		res.FreezeIter[v] = -1
	}

	// live holds the active (unfrozen) vertices and edges the active edges,
	// both in increasing id order. Each growth step drops what froze and
	// keeps the order: the freeze list follows it, and the freeze walk's
	// float sums depend on the freeze list's order (run_ref_test.go pins
	// every bit against a sweep over all ids).
	live := make([]graph.Vertex, n)
	for v := range live {
		live[v] = graph.Vertex(v)
	}
	edges := make([]graph.EdgeID, m)
	edgeActive := make([]bool, m)
	for e := range edges {
		edges[e] = graph.EdgeID(e)
		edgeActive[e] = true
	}

	// frozenDualSum tracks Σ x_e over frozen (finalized) edges for observer
	// events; it is the raw dual total the certificate later builds on.
	frozenDualSum := 0.0
	var freezeList []graph.Vertex
	// With StopAfter set the loop runs exactly StopAfter iterations, also
	// after the last active edge froze: live vertices keep drawing
	// thresholds and growing, as on a Line 2g machine.
	t := 0
	for ; len(edges) > 0 || t < opts.StopAfter; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.StopAfter > 0 && t >= opts.StopAfter {
			break
		}
		if len(edges) > 0 && t >= maxIter {
			return nil, fmt.Errorf("centralized: no termination after %d iterations (%d active edges remain)", t, len(edges))
		}
		if opts.RecordTrace {
			snap := make([]float64, n)
			for v := 0; v < n; v++ {
				snap[v] = yActive[v] + yFrozen[v]
			}
			res.YTrace = append(res.YTrace, snap)
		}

		// Line (4a): simultaneous freeze test against start-of-iteration y.
		freezeList = freezeList[:0]
		for _, v := range live {
			if yActive[v]+yFrozen[v] >= threshold(v, t)*w[v] {
				freezeList = append(freezeList, v)
			}
		}
		for _, v := range freezeList {
			res.Cover[v] = true
			res.FreezeIter[v] = t
		}
		for _, v := range freezeList {
			nbrs := g.Neighbors(v)
			for i, e := range g.IncidentEdges(v) {
				if !edgeActive[e] {
					continue
				}
				edgeActive[e] = false
				frozenDualSum += x[e]
				u := nbrs[i]
				// Move the edge's weight from the active to the frozen sum of
				// the surviving endpoint (and of v itself, harmlessly).
				yActive[u] -= x[e]
				yFrozen[u] += x[e]
				yActive[v] -= x[e]
				yFrozen[v] += x[e]
			}
		}

		// Lines (4b)/(4c): active edges grow by 1/(1−ε); frozen stay.
		k := 0
		for _, e := range edges {
			if edgeActive[e] {
				x[e] *= growth
				edges[k] = e
				k++
			}
		}
		edges = edges[:k]
		if len(edges) > 0 || t+1 < opts.StopAfter {
			k = 0
			for _, v := range live {
				if !res.Cover[v] {
					yActive[v] *= growth
					live[k] = v
					k++
				}
			}
			live = live[:k]
		}
		solver.Emit(opts.Observer, solver.Event{
			Kind:        solver.KindRound,
			Phase:       -1,
			Round:       t + 1,
			ActiveEdges: int64(len(edges)),
			DualBound:   frozenDualSum,
		})
	}
	if opts.RecordTrace {
		// One extra snapshot so YTrace[t] is defined for t = Iterations as
		// well (the state after the last growth step), which the Lemma 4.6
		// coupling compares against.
		snap := make([]float64, n)
		for v := 0; v < n; v++ {
			snap[v] = yActive[v] + yFrozen[v]
		}
		res.YTrace = append(res.YTrace, snap)
	}
	res.Iterations = t
	res.X = x
	return res, nil
}
