// Package core implements Algorithm 2 of the paper: the MPC simulation that
// computes a (2+ε)-approximate minimum-weight vertex cover in O(log log d)
// rounds with Õ(n) memory per machine.
//
// Each phase of the algorithm:
//
//	(2a) splits the nonfrozen vertices into V^high (residual degree ≥ d^0.95)
//	     and V^inactive;
//	(2b) computes residual weights w′(v) = w(v) − Σ_{e∋v frozen} x_e;
//	(2c) initializes duals x_e = min{w′(u)/d(u), w′(v)/d(v)} on E[V^high];
//	(2d–2f) draws random thresholds, sets m = √d machines and
//	     I = log m/(10·log 15) iterations, and partitions V^high uniformly;
//	(2g) simulates the centralized algorithm locally on each machine, using
//	     the biased estimator ỹ = 2m^{−0.2}·15^t + m·Σ_{local e∋v} x_{e,t};
//	(2h–2j) reconciles: every edge of E[V^high] gets the weight implied by
//	     the earliest endpoint freeze, over-covered vertices freeze, and
//	     frozen V^inactive–V^high edges finalize at 0;
//	(2k) updates residual degrees.
//
// When the average residual degree drops below the switch-over threshold,
// the remaining Õ(n)-edge instance is solved on one machine by the
// centralized algorithm (package centralized).
package core

import (
	"fmt"
	"math"

	"repro/internal/solver"
)

// Params configures Algorithm 2. Use ParamsPractical or ParamsPaper and
// adjust fields; the zero value is invalid.
//
// The paper's constants (log³⁰n switch-over, I = log m/(10 log 15)) are
// sized for asymptotic proofs and would execute zero phases on any graph
// that fits in memory; ParamsPractical keeps every formula but scales the
// proof-slack constants so phases actually run at laptop scale (see
// DESIGN.md, "Constant-scaling"). Every experiment records which preset it
// used.
type Params struct {
	// Epsilon is the accuracy parameter ε; the cover weight is certified at
	// (2+O(ε))·OPT (Theorem 4.7 proves 2+30ε).
	Epsilon float64
	// Seed drives all randomness (partitions, thresholds) reproducibly.
	Seed uint64
	// HighDegreeExponent is the γ in the V^high rule d(v) ≥ d^γ; paper: 0.95.
	HighDegreeExponent float64
	// BiasCoefficient and BiasGrowth define the one-sided estimator bias
	// b(t) = BiasCoefficient·m^{−0.2}·BiasGrowth^t·w′(v). The paper's
	// constants are 2 and 15 (ParamsPaper); they are sized so the bias
	// dominates the worst-case deviation recursion of Lemma 4.13, which
	// needs m ≥ (4/ε)^10 machines before the bias itself drops below ε·w′.
	// ParamsPractical uses ε/4 and 1: the same functional form with the
	// cushion scaled to finite machine counts and held constant across
	// iterations, so the estimator stays one-sided against observed (not
	// worst-case) sampling noise without freezing every vertex outright.
	BiasCoefficient float64
	BiasGrowth      float64
	// SwitchThreshold returns the average-degree level at which the
	// algorithm moves the residual instance to one machine (paper: log³⁰n).
	SwitchThreshold func(n int) float64
	// PhaseIterations returns I, the number of locally simulated iterations,
	// given the machine (or gathered group) count m for the phase (paper:
	// log m/(10·log 15)).
	PhaseIterations func(machines int, epsilon float64) int
	// NumMachines returns the number of simulation machines (or gathered
	// groups, before any split) for a phase with average residual degree d
	// (paper: √d).
	NumMachines func(d float64) int
	// MemoryWords returns S, the per-machine memory budget in words, for a
	// graph with n vertices (paper: Õ(n)).
	MemoryWords func(n int) int64
	// Parallelism bounds concurrent machine execution (0 = GOMAXPROCS).
	Parallelism int
	// Observer, when non-nil, receives phase and round events as the
	// algorithm executes (see internal/solver). The per-round event count
	// matches Result.Rounds exactly: one KindRound per accounted cluster
	// round, including the final gather.
	Observer solver.Observer

	// Ablation switches (experiment E10). All default off = paper behaviour;
	// BiasCoefficient = 0 removes the bias term.

	// DisableInactiveSplit simulates every nonfrozen vertex instead of
	// excluding low-degree vertices.
	DisableInactiveSplit bool
	// FixedThresholds replaces random T_{v,t} with the constant 1−3ε.
	FixedThresholds bool
	// UniformInit replaces the degree-aware initialization with the classic
	// x_e = w′_min/n.
	UniformInit bool

	// CollectCoupling retains per-phase data (partition, initial duals,
	// freeze iterations) and runs the coupled centralized reference, so the
	// Lemma 4.6 deviations can be measured. Costs memory; off by default.
	CollectCoupling bool
}

// ParamsPractical returns parameters that follow the paper's formulas with
// proof-slack constants scaled for finite inputs:
//
//   - switch-over at d ≤ max(8, 2·log₂ n) — the residual instance then has
//     O(n log n) edges and fits one machine, mirroring the paper's
//     "d ≤ log³⁰ n ⇒ Õ(n) edges" switch;
//   - I = max(2, ⌊0.5·ln m / ln(1/(1−ε))⌋). The theory's coefficient is
//     0.1 (so (1/(1−ε))^I ≤ m^0.1, the slack Lemma 4.11 consumes), but
//     at finite m that yields I ∈ {1, 2}, and a phase with (1−ε)^I ≈ 0.9
//     freezes too little to beat the edges parked at V^inactive — the
//     phase recursion only contracts asymptotically. Coefficient 0.5 keeps
//     I ∝ log m (preserving the O(log log d) phase count) while making
//     (1−ε)^I = m^{−0.5} small enough that each phase visibly shrinks
//     the graph at laptop scale;
//   - V^high cutoff d^0.8 rather than d^0.95: at practical d the gap
//     between d^0.95 and d is under 20%, which starves high-degree
//     vertices whose neighbors are mostly inactive (their E[V^high]
//     incident weight never reaches the threshold, so their edges never
//     freeze). Asymptotically the d^0.05 gap is enormous and starvation
//     vanishes; 0.8 restores the intended "only a vanishing fraction is
//     inactive" behaviour at finite d;
//   - m = max(1, round(√d)) and S = Õ(n): max(4096, 8·n·(1+log₂ n)) words;
//   - bias cushion (ε/4)·m^{−0.2}·w′(v), constant across iterations
//     (growth 1): the worst-case 15^t error recursion of Lemma 4.13 does
//     not materialize over I ≈ 10 practical iterations, and any
//     exponentially growing cushion would cross every threshold by itself.
func ParamsPractical(epsilon float64, seed uint64) Params {
	return Params{
		Epsilon:            epsilon,
		Seed:               seed,
		HighDegreeExponent: 0.8,
		BiasCoefficient:    epsilon / 4,
		BiasGrowth:         1,
		SwitchThreshold: func(n int) float64 {
			return math.Max(8, 2*math.Log2(math.Max(2, float64(n))))
		},
		PhaseIterations: func(machines int, eps float64) int {
			if machines < 2 {
				return 2
			}
			i := int(math.Floor(0.5 * math.Log(float64(machines)) / math.Log(1/(1-eps))))
			if i < 2 {
				return 2
			}
			return i
		},
		NumMachines: func(d float64) int {
			m := int(math.Round(math.Sqrt(math.Max(1, d))))
			if m < 1 {
				return 1
			}
			return m
		},
		MemoryWords: func(n int) int64 {
			nf := math.Max(2, float64(n))
			s := int64(8 * nf * (1 + math.Log2(nf)))
			if s < 4096 {
				return 4096
			}
			return s
		},
	}
}

// ParamsPaper returns the literal constants of Algorithm 2: switch-over at
// d ≤ log³⁰ n and I = log m / (10·log 15). On any graph of practical size
// the switch-over condition holds immediately, so the algorithm runs zero
// sampled phases and solves everything in the final centralized phase —
// which is the mathematically correct (if degenerate) behaviour at these
// scales; tests pin it down.
func ParamsPaper(epsilon float64, seed uint64) Params {
	p := ParamsPractical(epsilon, seed)
	p.HighDegreeExponent = 0.95
	p.BiasCoefficient = 2
	p.BiasGrowth = 15
	p.SwitchThreshold = func(n int) float64 {
		return math.Pow(math.Log2(math.Max(2, float64(n))), 30)
	}
	p.PhaseIterations = func(machines int, _ float64) int {
		if machines < 2 {
			return 1
		}
		i := int(math.Floor(math.Log(float64(machines)) / (10 * math.Log(15))))
		if i < 1 {
			return 1
		}
		return i
	}
	return p
}

// Validate checks the parameter set.
func (p *Params) Validate() error {
	if p.Epsilon <= 0 || p.Epsilon > 0.125 {
		return fmt.Errorf("core: epsilon %v out of (0, 0.125]: %w", p.Epsilon, solver.ErrUnsupported)
	}
	if p.HighDegreeExponent <= 0 || p.HighDegreeExponent >= 1 {
		return fmt.Errorf("core: high-degree exponent %v out of (0, 1)", p.HighDegreeExponent)
	}
	if p.BiasCoefficient < 0 || p.BiasGrowth < 1 {
		return fmt.Errorf("core: bias parameters (%v, %v) invalid", p.BiasCoefficient, p.BiasGrowth)
	}
	if p.SwitchThreshold == nil || p.PhaseIterations == nil || p.NumMachines == nil || p.MemoryWords == nil {
		return fmt.Errorf("core: nil parameter function (use ParamsPractical/ParamsPaper as a base)")
	}
	return nil
}
