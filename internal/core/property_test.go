package core

// Property-based tests of the full Algorithm 2 pipeline, per the testing
// strategy in DESIGN.md: on arbitrary random instances, the result is a
// valid cover, the rescaled duals are feasible, weak duality sandwiches
// every algorithm's bound below the others' weights, and the residual
// bookkeeping never goes negative.

import (
	"context"

	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

func TestQuickFullPipeline(t *testing.T) {
	f := func(seed uint64) bool {
		n := 50 + int(seed%400)
		d := 4 + float64(seed%40)
		g := gen.ApplyWeights(gen.GnpAvgDegree(seed, n, d), seed+1, gen.Exponential{Mean: 3})
		res, err := Run(context.Background(), g, ParamsPractical(0.1, seed+2))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		scaled, alpha := res.FeasibleDual(g)
		cert, err := verify.NewCertificate(g, res.Cover, scaled)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if alpha > 3 {
			t.Logf("seed %d: alpha %v", seed, alpha)
			return false
		}
		// Weak duality across algorithms: our certified bound must not
		// exceed any other valid cover's weight.
		byeCover, _ := verify.BarYehudaEven(g)
		if cert.Bound > verify.CoverWeight(g, byeCover)+1e-9 {
			t.Logf("seed %d: bound above BYE cover", seed)
			return false
		}
		return cert.Ratio() <= 2+30*0.1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickResidualWeightsStayPositive(t *testing.T) {
	// After any run, Σ_{e∋v} x_e ≤ alpha·w(v) and the per-vertex frozen
	// incident weight reconstructed from X never exceeds alpha·w(v) —
	// i.e. no vertex was charged into negative residual territory beyond
	// the known estimator overshoot.
	f := func(seed uint64) bool {
		n := 100 + int(seed%200)
		g := gen.ApplyWeights(gen.GnpAvgDegree(seed+7, n, 24), seed+8, gen.UniformRange{Lo: 0.5, Hi: 50})
		res, err := Run(context.Background(), g, ParamsPractical(0.1, seed+9))
		if err != nil {
			t.Log(err)
			return false
		}
		_, alpha := res.FeasibleDual(g)
		incident := make([]float64, n)
		for e := 0; e < g.NumEdges(); e++ {
			u, v := g.Edge(graph.EdgeID(e))
			incident[u] += res.X[e]
			incident[v] += res.X[e]
		}
		for v := 0; v < n; v++ {
			if incident[v] > alpha*g.Weight(graph.Vertex(v))*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnitWeightsMatchUnweightedSemantics(t *testing.T) {
	// With unit weights the dual bound is at most the matching number, so
	// bound ≤ n/2 always; and the cover size is an integer-weight sum.
	f := func(seed uint64) bool {
		n := 60 + int(seed%200)
		g := gen.GnpAvgDegree(seed+11, n, 12)
		res, err := Run(context.Background(), g, ParamsPractical(0.1, seed+12))
		if err != nil {
			t.Log(err)
			return false
		}
		scaled, _ := res.FeasibleDual(g)
		return verify.DualValue(scaled) <= float64(n)/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
