// Package baselines implements the comparison algorithms the paper measures
// itself against (Section 1.2), and registers the two sequential ones:
//
//   - `bye`, the classic sequential 2-approximation of Bar-Yehuda–Even
//     [BYE81], the paper's primal–dual ancestor. The pass itself is
//     verify.BarYehudaEven, which pdfast's tail and the pipeline's
//     certificate for dual-free solvers share;
//   - the LOCAL/PRAM primal–dual baseline — Algorithm 1 run one iteration
//     per communication round — in both initializations: degree-aware
//     (O(log Δ) rounds) and the classic uniform x_e = 1/n (O(log nW)
//     rounds, the "best known O(log n)" the paper improves on, cf. [KY09]);
//   - `greedy`, weighted vertex cover by price per uncovered edge, a quality
//     reference without approximation guarantee for the weighted case. It
//     raises no duals; the pipeline certifies its cover with the
//     Bar-Yehuda–Even bound of the same instance.
package baselines

import (
	"context"
	"math"

	"repro/internal/centralized"
	"repro/internal/graph"
)

// Solution is a vertex cover together with, when available, a feasible dual
// certificate and round accounting.
type Solution struct {
	Cover []bool
	// Duals is a feasible fractional matching certifying Weight ≤ 2·OPT
	// style bounds; nil for algorithms that do not produce one (greedy).
	Duals []float64
	// Rounds is the number of communication rounds the algorithm would take
	// in a LOCAL/MPC execution; 0 for inherently sequential algorithms.
	Rounds int
}

// LocalPrimalDual runs Algorithm 1 with one iteration per round — the
// LOCAL-model baseline. With the degree-aware initialization it terminates
// in O(log Δ) rounds; with InitUniform in O(log(n·W/w_min)) rounds. The
// returned Rounds is the iteration count.
func LocalPrimalDual(ctx context.Context, g *graph.Graph, epsilon float64, seed uint64, init centralized.InitPolicy) (*Solution, error) {
	res, err := centralized.Run(ctx,
		centralized.Instance{G: g},
		centralized.Options{Epsilon: epsilon, Seed: seed, Init: init},
	)
	if err != nil {
		return nil, err
	}
	return &Solution{Cover: res.Cover, Duals: res.X, Rounds: res.Iterations}, nil
}

// Greedy repeatedly selects the vertex minimizing weight per newly covered
// edge until all edges are covered. No constant-factor guarantee in the
// weighted case (Θ(log n) in the worst case); included as the natural
// "what a practitioner would try first" reference.
func Greedy(g *graph.Graph) *Solution {
	n := g.NumVertices()
	uncovered := make([]int, n) // uncovered incident edges per vertex
	covered := make([]bool, g.NumEdges())
	for v := 0; v < n; v++ {
		uncovered[v] = g.Degree(graph.Vertex(v))
	}
	cover := make([]bool, n)
	remaining := g.NumEdges()
	for remaining > 0 {
		best := -1
		bestScore := math.Inf(1)
		for v := 0; v < n; v++ {
			if cover[v] || uncovered[v] == 0 {
				continue
			}
			score := g.Weight(graph.Vertex(v)) / float64(uncovered[v])
			if score < bestScore {
				bestScore = score
				best = v
			}
		}
		if best < 0 {
			break // cannot happen on a consistent state
		}
		cover[best] = true
		ids := g.IncidentEdges(graph.Vertex(best))
		for _, e := range ids {
			if covered[e] {
				continue
			}
			covered[e] = true
			remaining--
			u, w := g.Edge(e)
			uncovered[u]--
			uncovered[w]--
		}
	}
	return &Solution{Cover: cover}
}
