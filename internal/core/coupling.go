package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/centralized"
)

// CouplingReport quantifies, for one phase, how closely the MPC simulation
// tracked the centralized algorithm run on the same induced subgraph with
// identical residual weights, initial duals and thresholds — the exact
// comparison of Lemma 4.6. All deviations are normalized by w′(v).
type CouplingReport struct {
	Phase      int
	Vertices   int
	Edges      int
	Machines   int
	Iterations int
	// MaxDevEstimate = max_{v,t} |y_{v,t} − ỹ^MPC_{v,t}| / w′(v); the lemma
	// proves ≤ 6ε w.h.p.
	MaxDevEstimate float64
	// MaxDevY = max_{v,t} |y_{v,t} − y^MPC_{v,t}| / w′(v); also ≤ 6ε.
	MaxDevY float64
	// MinOneSided = min over good (v,t) of (ỹ^MPC_{v,t} − y_{v,t}) / w′(v).
	// With the bias term, Lemma 4.13(3) proves this is ≥ 0 w.h.p.; the
	// ablation with BiasCoefficient = 0 shows it going negative.
	MinOneSided float64
	// BadVertices counts vertices whose freeze behaviour diverged between
	// the two algorithms at any point in the phase.
	BadVertices int
	// Bound is the lemma's bound 6ε, for direct table comparison.
	Bound float64
}

// AnalyzeCoupling replays the captured phase: it runs the centralized
// algorithm for the same number of iterations on the V^high subgraph with
// the same randomness, reconstructs the MPC trajectories x^MPC_{e,t} /
// y^MPC_{v,t} / ỹ^MPC_{v,t} from the recorded freeze iterations, and
// reports the deviations.
func AnalyzeCoupling(cp CouplingPhase, p Params) (*CouplingReport, error) {
	nv := len(cp.High)
	eps := p.Epsilon
	// The replay is an offline analysis step, not a serving path; it runs
	// uncancellable on a background context.
	cres, err := centralized.Run(context.Background(),
		centralized.Instance{G: newClass(cp.High, cp.ResidualWeight, cp.Edges, cp.X0), X0: cp.X0},
		centralized.Options{
			Epsilon:     eps,
			Threshold:   p.thresholds(cp.Phase, cp.High),
			StopAfter:   cp.Iterations,
			RecordTrace: true,
		},
	)
	if err != nil {
		return nil, fmt.Errorf("core: coupling centralized run: %w", err)
	}

	growth := 1 / (1 - eps)
	iters := cp.Iterations
	mf := float64(cp.Machines)
	bias := biasSchedule(nil, p.BiasCoefficient, p.BiasGrowth, cp.Machines, iters+1)

	// t′_e per captured edge: earliest endpoint freeze in the MPC run.
	fiOf := func(i int32) int {
		if fi := cp.FreezeIter[i]; fi >= 0 {
			return fi
		}
		return iters
	}
	edgeStop := make([]int, len(cp.Edges))
	for i, e := range cp.Edges {
		t := fiOf(e[0])
		if tv := fiOf(e[1]); tv < t {
			t = tv
		}
		edgeStop[i] = t
	}

	rep := &CouplingReport{
		Phase:       cp.Phase,
		Vertices:    nv,
		Edges:       len(cp.Edges),
		Machines:    cp.Machines,
		Iterations:  iters,
		MinOneSided: math.Inf(1),
		Bound:       6 * eps,
	}

	yMPC := make([]float64, nv)
	yTilde := make([]float64, nv)
	pow := 1.0
	for t := 0; t <= iters; t++ {
		for i := range yMPC {
			yMPC[i] = 0
			yTilde[i] = 0
		}
		for i, e := range cp.Edges {
			stop := edgeStop[i]
			x := cp.X0[i]
			if t <= stop {
				x *= pow
			} else {
				x *= math.Pow(growth, float64(stop))
			}
			yMPC[e[0]] += x
			yMPC[e[1]] += x
			if cp.MachineOf[e[0]] == cp.MachineOf[e[1]] {
				yTilde[e[0]] += x
				yTilde[e[1]] += x
			}
		}
		yCent := cres.YTrace[t]
		for i := 0; i < nv; i++ {
			w := cp.ResidualWeight[i]
			est := bias[t]*w + mf*yTilde[i]
			devEst := math.Abs(yCent[i]-est) / w
			devY := math.Abs(yCent[i]-yMPC[i]) / w
			if devEst > rep.MaxDevEstimate {
				rep.MaxDevEstimate = devEst
			}
			if devY > rep.MaxDevY {
				rep.MaxDevY = devY
			}
			// Good at t: the freeze behaviour has not diverged before t.
			cf, mpcF := cres.FreezeIter[i], cp.FreezeIter[i]
			goodAtT := cf == mpcF || (cf < 0 || cf >= t) && (mpcF < 0 || mpcF >= t)
			if goodAtT {
				if side := (est - yCent[i]) / w; side < rep.MinOneSided {
					rep.MinOneSided = side
				}
			}
		}
		pow *= growth
	}
	for i := 0; i < nv; i++ {
		if cres.FreezeIter[i] != cp.FreezeIter[i] {
			rep.BadVertices++
		}
	}
	return rep, nil
}
