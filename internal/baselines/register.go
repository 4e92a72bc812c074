package baselines

import (
	"context"

	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/verify"
)

func init() {
	solver.Register(solver.Meta{
		Name:    "bye",
		Rank:    30,
		Tier:    solver.TierFast,
		Summary: "sequential Bar-Yehuda–Even 2-approximation (single pass, self-certifying)",
	}, solver.Func(solveBYE))
	solver.Register(solver.Meta{
		Name:    "greedy",
		Rank:    40,
		Tier:    solver.TierFast,
		Summary: "weighted greedy (no constant-factor guarantee)",
	}, solver.Func(solveGreedy))
}

// The sequential baselines finish in one linear pass, so they only honor a
// cancellation observed at entry; there is no iterative loop to interrupt.

func solveBYE(ctx context.Context, g *graph.Graph, cfg solver.Config) (*solver.Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cover, x := verify.BarYehudaEven(g)
	return &solver.Outcome{Cover: cover, Duals: x}, nil
}

func solveGreedy(ctx context.Context, g *graph.Graph, cfg solver.Config) (*solver.Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &solver.Outcome{Cover: Greedy(g)}, nil
}
