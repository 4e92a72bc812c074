// Package baselines implements the comparison algorithms the paper measures
// itself against (Section 1.2):
//
//   - the classic sequential 2-approximation of Bar-Yehuda–Even [BYE81]
//     (the paper's primal–dual ancestor), which doubles as a cheap
//     certified lower bound for branch-and-bound;
//   - the LOCAL/PRAM primal–dual baseline — Algorithm 1 run one iteration
//     per communication round — in both initializations: degree-aware
//     (O(log Δ) rounds) and the classic uniform x_e = 1/n (O(log nW)
//     rounds, the "best known O(log n)" the paper improves on, cf. [KY09]);
//   - greedy weighted vertex cover (price-per-uncovered-edge), a quality
//     reference without approximation guarantee for the weighted case.
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

// BarYehudaEven runs the linear-time local-ratio 2-approximation: edges are
// scanned once; each edge charges δ = min(residual(u), residual(v)) to both
// endpoints; vertices whose residual reaches zero join the cover. The edge
// charges form a feasible fractional matching, so the solution carries its
// own ≤2 certificate.
func BarYehudaEven(g *graph.Graph) *Solution {
	n := g.NumVertices()
	residual := make([]float64, n)
	for v := 0; v < n; v++ {
		residual[v] = g.Weight(graph.Vertex(v))
	}
	duals := make([]float64, g.NumEdges())
	cover := make([]bool, n)
	ep := g.EdgeEndpoints()
	for e := 0; e < g.NumEdges(); e++ {
		u, v := ep[2*e], ep[2*e+1]
		if cover[u] || cover[v] {
			continue
		}
		delta := math.Min(residual[u], residual[v])
		duals[e] = delta
		residual[u] -= delta
		residual[v] -= delta
		if residual[u] <= 0 {
			cover[u] = true
		}
		if residual[v] <= 0 {
			cover[v] = true
		}
	}
	return &Solution{Cover: cover, Duals: duals}
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
