// Package baselines registers the two sequential comparison algorithms the
// paper measures itself against (Section 1.2):
//
//   - `bye`, the classic sequential 2-approximation of Bar-Yehuda–Even
//     [BYE81], the paper's primal–dual ancestor. The pass itself is
//     verify.BarYehudaEven, which pdfast's tail and the pipeline's
//     certificate for dual-free solvers share;
//   - `greedy`, weighted vertex cover by price per uncovered edge, a quality
//     reference without approximation guarantee for the weighted case. It
//     raises no duals; the pipeline certifies its cover with the
//     Bar-Yehuda–Even bound of the same instance.
//
// The LOCAL/PRAM primal–dual baseline — Algorithm 1 run one iteration per
// communication round, in the degree-aware (O(log Δ) rounds) and the
// classic uniform x_e = 1/n (O(log nW) rounds, the "best known O(log n)"
// the paper improves on, cf. [KY09]) initializations — is package
// centralized, registered as `centralized` and `local-uniform`.
package baselines

import (
	"math"

	"repro/internal/graph"
)

// Greedy repeatedly selects the vertex minimizing weight per newly covered
// edge until all edges are covered, and returns the cover as a membership
// slice indexed by vertex. No constant-factor guarantee in the
// weighted case (Θ(log n) in the worst case); included as the natural
// "what a practitioner would try first" reference.
func Greedy(g *graph.Graph) []bool {
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
	return cover
}
