package pdfast

import (
	"context"

	"repro/internal/graph"
	"repro/internal/solver"
)

func init() {
	solver.Register(solver.Meta{
		Name:    "pdfast",
		Rank:    25,
		Tier:    solver.TierFast,
		Summary: "O(m) primal–dual CSR sweep, certified 2-approximation (serve fast tier)",
	}, solver.Func(solve))
}

// solve runs the sweep across cfg.Parallelism workers (0 = GOMAXPROCS). The
// worker count cannot change any floating-point operation order, so the
// outcome is the same bit for bit at every setting.
func solve(ctx context.Context, g *graph.Graph, cfg solver.Config) (*solver.Outcome, error) {
	res, err := Run(ctx, g, cfg.Parallelism, cfg.Observer)
	if err != nil {
		return nil, err
	}
	return &solver.Outcome{Cover: res.Cover, Duals: res.Duals, Rounds: res.Rounds}, nil
}
