package compress

import (
	"context"

	"repro/internal/core"
	"repro/internal/graph"
)

// Result is the outcome of a round-compressed run: the core.Result — cover,
// finalized duals, round/phase counts and per-phase stats, with identical
// semantics — plus the gathered schedule's measurements.
type Result struct {
	core.Result
	core.GatherStats
}

// Run executes Algorithm 2 on g with every phase on the gathered schedule
// (core.RunGathered): three accounted cluster rounds per phase (scatter,
// simulate, collect) instead of the native five. The context is checked
// between phases, between cluster rounds, and inside the final centralized
// phase.
func Run(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
	res, gs, err := core.RunGathered(ctx, g, p.Params, p.GatherWords)
	if err != nil {
		return nil, err
	}
	return &Result{Result: *res, GatherStats: gs}, nil
}
