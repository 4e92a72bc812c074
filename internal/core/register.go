package core

import (
	"context"

	"repro/internal/graph"
	"repro/internal/solver"
)

func init() {
	solver.Register(solver.Meta{
		Name:    "mpc",
		Rank:    0,
		Tier:    solver.TierAccurate,
		Summary: "the paper's Algorithm 2: O(log log d)-round MPC simulation (default)",
	}, solver.Func(solveMPC))
}

// solveMPC adapts Algorithm 2 to the registry contract. Result.Outcome
// rescales the duals in place to exact feasibility (FeasibleDual's α and
// bits), so the facade can build a checked certificate from them directly.
func solveMPC(ctx context.Context, g *graph.Graph, cfg solver.Config) (*solver.Outcome, error) {
	params := ParamsPractical(cfg.Epsilon, cfg.Seed)
	if cfg.PaperConstants {
		params = ParamsPaper(cfg.Epsilon, cfg.Seed)
	}
	params.Parallelism = cfg.Parallelism
	params.Observer = cfg.Observer
	res, err := Run(ctx, g, params)
	if err != nil {
		return nil, err
	}
	return res.Outcome(g), nil
}
