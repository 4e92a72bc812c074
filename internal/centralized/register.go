package centralized

import (
	"context"

	"repro/internal/graph"
	"repro/internal/solver"
)

// The registry ranks mirror the pre-registry Algorithms() listing order:
// mpc(0), centralized(10), local-uniform(20), bye(30), greedy(40),
// congested-clique(50), exact(70).
func init() {
	solver.Register(solver.Meta{
		Name:    "centralized",
		Rank:    10,
		Tier:    solver.TierAccurate,
		Summary: "Algorithm 1 with degree-aware initialization (O(log Δ) iterations)",
	}, solverFor(InitDegreeAware))
	solver.Register(solver.Meta{
		Name:    "local-uniform",
		Rank:    20,
		Tier:    solver.TierAccurate,
		Summary: "Algorithm 1 with uniform initialization (O(log nW) iterations, pre-paper baseline)",
	}, solverFor(InitUniform))
}

// solverFor adapts Algorithm 1 under the given initialization policy to the
// registry contract. Iterations double as LOCAL communication rounds.
func solverFor(init InitPolicy) solver.Func {
	return func(ctx context.Context, g *graph.Graph, cfg solver.Config) (*solver.Outcome, error) {
		res, err := Run(ctx, Instance{G: g}, Options{
			Epsilon:  cfg.Epsilon,
			Seed:     cfg.Seed,
			Init:     init,
			Observer: cfg.Observer,
		})
		if err != nil {
			return nil, err
		}
		return &solver.Outcome{Cover: res.Cover, Duals: res.X, Rounds: res.Iterations}, nil
	}
}
