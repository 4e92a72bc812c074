package compress

import (
	"context"

	"repro/internal/graph"
	"repro/internal/solver"
)

func init() {
	solver.Register(solver.Meta{
		Name:    "mpc-compress",
		Rank:    1,
		Tier:    solver.TierAccurate,
		Summary: "round-compressed Algorithm 2: sampled LOCAL simulation, 3 cluster rounds per phase",
	}, solver.Func(solveCompress))
}

// solveCompress adapts the round-compressed solver to the registry
// contract. As with the native solver, core.Result.Outcome rescales the
// duals in place to exact feasibility on the original graph (FeasibleDual's
// α and bits), so the facade can build a checked certificate from them
// directly.
func solveCompress(ctx context.Context, g *graph.Graph, cfg solver.Config) (*solver.Outcome, error) {
	params := DefaultParams(cfg.Epsilon, cfg.Seed)
	if cfg.PaperConstants {
		params = PaperParams(cfg.Epsilon, cfg.Seed)
	}
	params.Parallelism = cfg.Parallelism
	params.Observer = cfg.Observer
	res, err := Run(ctx, g, params)
	if err != nil {
		return nil, err
	}
	return res.Outcome(g), nil
}
