package core

import (
	"math"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/solver"
)

// PhaseStat records what one phase of Algorithm 2 did — the raw material
// for experiments E1 (rounds), E3 (machine memory) and E4 (degree decay).
type PhaseStat struct {
	// Phase is the phase index, starting at 0.
	Phase int
	// AvgDegree is d at the start of the phase: (1/n)·Σ_{v nonfrozen} d(v).
	AvgDegree float64
	// NumNonfrozen, NumHigh, NumInactive count vertices at the phase start.
	NumNonfrozen int
	NumHigh      int
	NumInactive  int
	// Machines is m = √d for the phase; Iterations is I.
	Machines   int
	Iterations int
	// MaxMachineEdges is max_i |E[V_i]|, the Lemma 4.1 quantity.
	MaxMachineEdges int
	// TotalMachineEdges is Σ_i |E[V_i]| — the globally materialized edges,
	// bounded by Õ(√d·n) ≤ Õ(|E|) in Lemma 4.1's global-memory remark.
	TotalMachineEdges int64
	// MaxMachineWords is the largest resident memory of any machine.
	MaxMachineWords int64
	// EdgesBefore / EdgesAfter count nonfrozen edges at phase boundaries.
	EdgesBefore int64
	EdgesAfter  int64
	// DecayBound is Lemma 4.4's two-term bound on EdgesAfter:
	// n·d·(1−ε)^I (surviving active out-edges, Observation 4.3) plus
	// n·d^γ (edges parked at V^inactive). The paper folds the second term
	// into the first — valid when (1−ε)^I ≥ d^{γ−1}, which its constants
	// guarantee asymptotically — so it states the single term 2·n·d·(1−ε)^I;
	// the two-term form is the inequality its proof actually establishes
	// and the one that is checkable at finite scale.
	DecayBound float64
	// NewlyFrozenVertices counts vertices frozen during the phase
	// (including the Line 2i safety freeze, reported separately too).
	NewlyFrozenVertices int
	FrozenAtLine2i      int
}

// CouplingPhase retains everything needed to replay one phase against the
// centralized reference with identical randomness (Lemma 4.6 experiments).
type CouplingPhase struct {
	Phase int
	// High lists V^high in ascending vertex order.
	High []graph.Vertex
	// ResidualWeight[i] is w′(High[i]).
	ResidualWeight []float64
	// MachineOf[i] is the machine High[i] was assigned to.
	MachineOf []int
	// Machines and Iterations echo the phase parameters.
	Machines   int
	Iterations int
	// Edges lists E[V^high] as index pairs into High, with initial duals.
	Edges [][2]int32
	X0    []float64
	// FreezeIter[i] is the local-simulation freeze iteration of High[i] in
	// [0, Iterations), or -1 if it stayed active through the simulation.
	FreezeIter []int
}

// Result is the outcome of a run of Algorithm 2.
type Result struct {
	// Cover[v] reports whether v is in the returned vertex cover.
	Cover []bool
	// X holds the finalized edge weights x^MPC_e. They form a fractional
	// matching that is feasible up to the (1+6ε) one-sided estimator error
	// of Lemma 4.6; FeasibleDual rescales a copy into an exactly feasible
	// certificate and reports the violation factor actually observed, and
	// Outcome rescales X itself.
	X []float64
	// Phases is the number of sampled phases executed (excluding the final
	// centralized phase).
	Phases int
	// FinalPhaseIterations is the iteration count of the final centralized
	// phase (Line 3).
	FinalPhaseIterations int
	// FinalPhaseEdges is the number of edges moved to one machine at Line 3.
	FinalPhaseEdges int64
	// Rounds is the total number of MPC communication rounds, including the
	// accounted O(1)-round aggregation primitives per phase.
	Rounds int
	// ClusterMetrics snapshots the substrate's accounting.
	ClusterMetrics mpc.Metrics
	// PhaseStats has one entry per sampled phase.
	PhaseStats []PhaseStat
	// Coupling is non-nil when Params.CollectCoupling was set.
	Coupling []CouplingPhase
}

// FeasibleDual returns duals scaled to exact feasibility together with the
// violation factor alpha = max(1, max_v Σ_{e∋v} x_e / w(v)). Theorem 4.7
// proves alpha ≤ 1+6ε w.h.p.; experiments record the measured value.
func (r *Result) FeasibleDual(g *graph.Graph) (scaled []float64, alpha float64) {
	alpha = r.alpha(g)
	scaled = make([]float64, len(r.X))
	inv := 1 / alpha
	for e, x := range r.X {
		scaled[e] = x * inv
	}
	return scaled, alpha
}

// Outcome scales X in place to the feasible dual FeasibleDual returns (the
// same α and the same products, so the same bits) and returns the registry
// outcome built on it. It is for adapters that hand the certificate on and
// drop the result: no second m-sized vector is allocated, and afterwards X
// no longer holds the raw x^MPC.
func (r *Result) Outcome(g *graph.Graph) *solver.Outcome {
	inv := 1 / r.alpha(g)
	for e, x := range r.X {
		r.X[e] = x * inv
	}
	return &solver.Outcome{Cover: r.Cover, Duals: r.X, Rounds: r.Rounds, Phases: r.Phases}
}

// alpha is FeasibleDual's violation factor max(1, max_v Σ_{e∋v} x_e / w(v)),
// over the vertices of positive weight.
func (r *Result) alpha(g *graph.Graph) float64 {
	alpha := 1.0
	for v, sum := range r.incident(g) {
		if w := g.Weight(graph.Vertex(v)); w > 0 {
			if f := sum / w; f > alpha {
				alpha = f
			}
		}
	}
	return alpha
}

// incident returns Σ_{e∋v} x_e for every vertex of g, summed in edge-id
// order.
func (r *Result) incident(g *graph.Graph) []float64 {
	sums := make([]float64, g.NumVertices())
	ep := g.EdgeEndpoints()
	for e, x := range r.X {
		sums[ep[2*e]] += x
		sums[ep[2*e+1]] += x
	}
	return sums
}

// CoverTightness returns the minimum over cover vertices of
// Σ_{e∋v} x_e / w(v) — the paper proves ≥ 1−16ε w.h.p. (Theorem 4.7), which
// is what makes the cover weight chargeable to the dual. Returns +Inf for an
// empty cover.
func (r *Result) CoverTightness(g *graph.Graph) float64 {
	minTight := math.Inf(1)
	for v, sum := range r.incident(g) {
		if r.Cover[v] {
			if t := sum / g.Weight(graph.Vertex(v)); t < minTight {
				minTight = t
			}
		}
	}
	return minTight
}
