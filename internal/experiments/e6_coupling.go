package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E6",
		Title: "MPC-vs-centralized coupling: estimator deviations and bad vertices",
		Claim: "Lemmas 4.6/4.13: |y − ỹ^MPC| ≤ 6ε·w′(v) w.h.p., the bias keeps the estimator error one-sided, and few vertices diverge ('bad')",
		Run:   runE6,
	})
}

func runE6(cfg Config) ([]Renderable, error) {
	eps := 0.1
	type pt struct {
		n int
		d float64
	}
	pts := []pt{{4000, 64}, {8000, 256}, {16000, 1024}}
	if cfg.Quick {
		pts = []pt{{2000, 64}, {4000, 256}}
	}
	tb := stats.NewTable("E6: coupled-run deviations per phase (6ε = 0.6)",
		"n", "d0", "phase", "machines", "iters", "max|y-est|/w", "max|y-yMPC|/w", "min_onesided", "bad", "vertices")
	for _, p := range pts {
		g := gen.ApplyWeights(gen.GnpAvgDegree(cfg.Seed+uint64(p.n), p.n, p.d), cfg.Seed+14, gen.UniformRange{Lo: 1, Hi: 10})
		params := core.ParamsPractical(eps, cfg.Seed+15)
		params.CollectCoupling = true
		res, err := core.Run(context.Background(), g, params)
		if err != nil {
			return nil, err
		}
		for _, cp := range res.Coupling {
			rep, err := core.AnalyzeCoupling(cp, params)
			if err != nil {
				return nil, err
			}
			tb.AddRow(p.n, p.d, rep.Phase, rep.Machines, rep.Iterations,
				rep.MaxDevEstimate, rep.MaxDevY, rep.MinOneSided, rep.BadVertices, rep.Vertices)
		}
	}

	// Bias ablation on the same workload: without the bias term the
	// estimator error is two-sided (MinOneSided goes clearly negative).
	n, d := 4000, 256.0
	if cfg.Quick {
		n, d = 2000, 64.0
	}
	ab := stats.NewTable("E6b: one-sidedness with and without the bias term",
		"variant", "phase", "min_onesided", "bad", "vertices")
	for _, disable := range []bool{false, true} {
		g := gen.ApplyWeights(gen.GnpAvgDegree(cfg.Seed+99, n, d), cfg.Seed+16, gen.UniformRange{Lo: 1, Hi: 10})
		params := core.ParamsPractical(eps, cfg.Seed+17)
		params.CollectCoupling = true
		if disable {
			params.BiasCoefficient = 0
		}
		res, err := core.Run(context.Background(), g, params)
		if err != nil {
			return nil, err
		}
		name := "with-bias"
		if disable {
			name = "no-bias"
		}
		for _, cp := range res.Coupling {
			rep, err := core.AnalyzeCoupling(cp, params)
			if err != nil {
				return nil, err
			}
			ab.AddRow(name, rep.Phase, rep.MinOneSided, rep.BadVertices, rep.Vertices)
		}
	}
	return renderables(tb, ab), nil
}
