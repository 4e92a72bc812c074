// Package cclique runs the primal–dual vertex-cover algorithm in the
// congested clique model (Section 1.3 of the paper): one machine per vertex,
// all-to-all communication, O(log n)-bit (here: a few words) messages per
// ordered pair per round.
//
// The paper's congested-clique result is obtained by simulation: by [BDH18]
// the near-linear-memory MPC model and the congested clique are equivalent
// up to constant factors, so Algorithm 2 transfers and yields O(log log d)
// rounds. This package complements that argument with a *direct* execution
// of the LOCAL primal–dual algorithm (Algorithm 1, one iteration per round)
// under mechanically enforced congested-clique constraints. Cover and duals
// come from centralized.Run, the one Algorithm 1 loop; the n-machine cluster
// replays the words each vertex-machine must exchange to compute them —
// w(v)/d(v) to every neighbor once, then one word to every neighbor in the
// round it freezes — so each message is capped per pair and counted. That
// gives the O(log Δ) baseline the simulation argument improves on.
package cclique

import (
	"context"
	"fmt"

	"repro/internal/centralized"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/solver"
)

// Result of a congested-clique run.
type Result struct {
	Cover []bool
	// X is the final fractional matching (one value per edge).
	X []float64
	// Rounds is the number of congested-clique communication rounds.
	Rounds int
	// Metrics exposes the substrate's accounting (per-pair caps included).
	Metrics mpc.Metrics
}

// Run executes the degree-aware primal–dual algorithm with one machine per
// vertex: a setup round, one round per iteration of Algorithm 1 and one
// accounted round of termination detection. Per round each machine sends at
// most PairWords=2 words to each neighbor: the setup round exchanges
// w(v)/d(v) ratios; an iteration round carries the freeze notices of the
// machines that froze in that iteration.
//
// The context is checked once per iteration of Algorithm 1 and before every
// congested-clique round; cfg.Observer receives one KindRound event per
// accounted round (event count == Result.Rounds).
func Run(ctx context.Context, g *graph.Graph, cfg solver.Config) (*Result, error) {
	if cfg.Epsilon <= 0 || cfg.Epsilon > 0.125 {
		return nil, fmt.Errorf("cclique: epsilon %v out of (0, 0.125]", cfg.Epsilon)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumVertices()
	if n == 0 {
		return &Result{Cover: nil, X: nil}, nil
	}
	run, err := centralized.Run(ctx, centralized.Instance{G: g},
		centralized.Options{Epsilon: cfg.Epsilon, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	// Memory: a vertex-machine stores its adjacency and per-edge duals.
	// The congested clique model does not constrain local memory, so the
	// budget is sized to the maximum degree plus slack.
	budget := int64(8*(g.MaxDegree()+4) + 64)
	cluster, err := mpc.NewCluster(mpc.Config{
		Machines:    n,
		MemoryWords: budget,
		PairWords:   2,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	// An edge freezes with the earlier of its endpoints; frozenAt[t] counts
	// the edges that froze in iteration t, so each round's event reports
	// the edges still active after it.
	frozenAt := make([]int64, run.Iterations)
	ep := g.EdgeEndpoints()
	for e := 0; e < g.NumEdges(); e++ {
		tu, tv := run.FreezeIter[ep[2*e]], run.FreezeIter[ep[2*e+1]]
		if tu < 0 || (tv >= 0 && tv < tu) {
			tu = tv
		}
		frozenAt[tu]++
	}
	activeEdges := int64(g.NumEdges())

	// step runs one congested-clique round with a context check before it
	// and a KindRound event after it.
	step := func(fn mpc.StepFunc) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := cluster.Round(fn); err != nil {
			return err
		}
		solver.Emit(cfg.Observer, solver.Event{
			Kind:        solver.KindRound,
			Phase:       -1,
			Round:       cluster.Metrics().Rounds,
			ActiveEdges: activeEdges,
		})
		return nil
	}

	// Setup round: every machine sends its w/d ratio to each neighbor.
	err = step(func(m *mpc.Machine) error {
		v := graph.Vertex(m.ID())
		nbrs := g.Neighbors(v)
		if err := m.Charge(int64(8*len(nbrs) + 16)); err != nil {
			return err
		}
		for _, u := range nbrs {
			if err := m.Send(int(u), []uint64{mpc.PutFloat(g.Weight(v) / float64(len(nbrs)))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Iteration rounds: each machine that froze in iteration t tells every
	// neighbor with one word. The first round also checks the setup
	// round's delivery: the neighbors' ratios, ordered by sender id, match
	// the adjacency slots (also sorted by id).
	for t := 0; t < run.Iterations; t++ {
		activeEdges -= frozenAt[t]
		err := step(func(m *mpc.Machine) error {
			v := graph.Vertex(m.ID())
			nbrs := g.Neighbors(v)
			if t == 0 {
				in := m.Inbox()
				if len(in) != len(nbrs) {
					return fmt.Errorf("cclique: vertex %d got %d ratio messages, want %d", v, len(in), len(nbrs))
				}
				for i, msg := range in {
					if graph.Vertex(msg.From) != nbrs[i] {
						return fmt.Errorf("cclique: vertex %d: message %d from %d, want %d", v, i, msg.From, nbrs[i])
					}
				}
			}
			if run.FreezeIter[v] == t {
				for _, u := range nbrs {
					if err := m.Send(int(u), []uint64{1}); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// One accounted aggregation round for global termination detection.
	cluster.AccountRounds(1)
	solver.Emit(cfg.Observer, solver.Event{
		Kind:        solver.KindRound,
		Phase:       -1,
		Round:       cluster.Metrics().Rounds,
		ActiveEdges: 0,
	})

	metrics := cluster.Metrics()
	return &Result{Cover: run.Cover, X: run.X, Rounds: metrics.Rounds, Metrics: metrics}, nil
}
