// Package cclique runs the primal–dual vertex-cover algorithm in the
// congested clique model (Section 1.3 of the paper): one machine per vertex,
// all-to-all communication, O(log n)-bit (here: a few words) messages per
// ordered pair per round.
//
// The paper's congested-clique result is obtained by simulation: by [BDH18]
// the near-linear-memory MPC model and the congested clique are equivalent
// up to constant factors, so Algorithm 2 transfers and yields O(log log d)
// rounds. This package complements that argument with a *direct*
// implementation of the LOCAL primal–dual algorithm (Algorithm 1, one
// iteration per round) under mechanically enforced congested-clique
// constraints — each vertex-machine exchanges only a constant number of
// words per neighbor per round. That gives the O(log Δ) baseline the
// simulation argument improves on, with every message counted.
package cclique

import (
	"context"
	"fmt"
	"math"

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
// vertex. Per round each machine sends at most PairWords=2 words to each
// neighbor: the setup round exchanges w(v)/d(v) ratios; each iteration
// round broadcasts the machine's new frozen status.
//
// The context is checked before every congested-clique round; cfg.Observer
// receives one KindRound event per accounted round (event count ==
// Result.Rounds).
func Run(ctx context.Context, g *graph.Graph, cfg solver.Config) (*Result, error) {
	epsilon, seed := cfg.Epsilon, cfg.Seed
	if epsilon <= 0 || epsilon > 0.125 {
		return nil, fmt.Errorf("cclique: epsilon %v out of (0, 0.125]", epsilon)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumVertices()
	if n == 0 {
		return &Result{Cover: nil, X: nil}, nil
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

	growth := 1 / (1 - epsilon)
	threshold := centralized.RandomThresholds(seed, epsilon)

	// Per-machine state, owned by machine v (index v). Slices are only
	// touched by their owning machine inside rounds, so access is race-free.
	type vertexState struct {
		ratio      []float64 // w(u)/d(u) of each neighbor, slot-aligned
		x          []float64 // current dual per incident edge, slot-aligned
		frozenEdge []bool
		active     bool
		y          float64
	}
	states := make([]vertexState, n)
	myRatio := make([]float64, n)
	for v := 0; v < n; v++ {
		deg := g.Degree(graph.Vertex(v))
		states[v] = vertexState{
			ratio:      make([]float64, deg),
			x:          make([]float64, deg),
			frozenEdge: make([]bool, deg),
			active:     deg > 0,
		}
		if deg > 0 {
			myRatio[v] = g.Weight(graph.Vertex(v)) / float64(deg)
		}
	}

	// step runs one congested-clique round with a context check before it
	// and a KindRound event after it. The active-edge recount happens inside
	// step, after the round's freezes landed, so events report the true
	// post-round count (it doubles as the driver's termination bookkeeping —
	// the constant-round aggregation a LOCAL scheduler would use, accounted
	// at the end).
	activeEdges := int64(g.NumEdges())
	recount := func() int64 {
		c := int64(0)
		ep := g.EdgeEndpoints()
		for e := 0; e < g.NumEdges(); e++ {
			u, w := ep[2*e], ep[2*e+1]
			if states[u].active && states[w].active {
				c++
			}
		}
		return c
	}
	step := func(fn mpc.StepFunc) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := cluster.Round(fn); err != nil {
			return err
		}
		activeEdges = recount()
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
		if err := m.Charge(int64(8*g.Degree(v) + 16)); err != nil {
			return err
		}
		for _, u := range g.Neighbors(v) {
			if err := m.Send(int(u), []uint64{mpc.PutFloat(myRatio[v])}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Iteration rounds. Each machine: ingest neighbor ratios (first round)
	// or freeze notifications; test its threshold; send its status change.
	maxIter := 3 + int(math.Ceil(math.Log(float64(g.MaxDegree())+2)/math.Log(growth)))
	setup := true
	t := 0
	for ; activeEdges > 0 && t < maxIter; t++ {
		iter := t
		isSetup := setup
		err := step(func(m *mpc.Machine) error {
			v := graph.Vertex(m.ID())
			st := &states[v]
			nbrs := g.Neighbors(v)
			if isSetup {
				// Inbox: the neighbors' ratios, ordered by sender id —
				// match them to adjacency slots (also sorted by id).
				in := m.Inbox()
				if len(in) != len(nbrs) {
					return fmt.Errorf("cclique: vertex %d got %d ratio messages, want %d", v, len(in), len(nbrs))
				}
				st.y = 0
				for i, msg := range in {
					if graph.Vertex(msg.From) != nbrs[i] {
						return fmt.Errorf("cclique: vertex %d: message %d from %d, want %d", v, i, msg.From, nbrs[i])
					}
					st.ratio[i] = mpc.GetFloat(msg.Data[0])
					st.x[i] = math.Min(myRatio[v], st.ratio[i])
					st.y += st.x[i]
				}
			} else {
				// Complete the previous iteration in LOCAL order: first
				// ingest the freeze notifications its test produced — the
				// shared edges stop at their pre-growth value — and only
				// then grow the edges that are still active on both sides.
				for _, msg := range m.Inbox() {
					u := graph.Vertex(msg.From)
					for i, w := range nbrs {
						if w == u {
							st.frozenEdge[i] = true
						}
					}
				}
				if st.active {
					st.y = 0
					for i := range st.x {
						if !st.frozenEdge[i] {
							st.x[i] *= growth
						}
						st.y += st.x[i]
					}
				}
			}
			// Iteration `iter`'s simultaneous freeze test.
			if st.active && st.y >= threshold(v, iter)*g.Weight(v) {
				st.active = false
				for i := range st.frozenEdge {
					st.frozenEdge[i] = true
				}
				// Notify all neighbors with one word.
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
		setup = false
	}
	if activeEdges > 0 {
		return nil, fmt.Errorf("cclique: %d active edges after %d rounds", activeEdges, t)
	}
	// One accounted aggregation round for global termination detection.
	cluster.AccountRounds(1)
	solver.Emit(cfg.Observer, solver.Event{
		Kind:        solver.KindRound,
		Phase:       -1,
		Round:       cluster.Metrics().Rounds,
		ActiveEdges: 0,
	})

	res := &Result{
		Cover: make([]bool, n),
		X:     make([]float64, g.NumEdges()),
	}
	for v := 0; v < n; v++ {
		res.Cover[v] = !states[v].active && g.Degree(graph.Vertex(v)) > 0
	}
	// Edge duals: the tail of each edge (min-ratio endpoint) knows the
	// authoritative value; reconstruct from the slot-aligned state.
	for v := 0; v < n; v++ {
		ids := g.IncidentEdges(graph.Vertex(v))
		for i, e := range ids {
			x := states[v].x[i]
			if x > res.X[e] {
				res.X[e] = x
			}
		}
	}
	res.Metrics = cluster.Metrics()
	res.Rounds = res.Metrics.Rounds
	return res, nil
}
