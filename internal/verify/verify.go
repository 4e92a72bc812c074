// Package verify provides the correctness checks shared by tests,
// experiments, and the CLI: cover validity, dual feasibility (the invariant
// of Observation 3.1), and certified approximation ratios via weak LP
// duality (Lemma 3.2). It also holds the one Bar-Yehuda–Even local-ratio
// pass, which raises such a dual together with a cover: pdfast finishes
// with it, `bye` is the pass from zero duals, and the pipeline certifies
// a solver that returns no duals with it.
package verify

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Tolerance is the absolute/relative slack allowed in floating-point
// feasibility comparisons. The algorithms accumulate at most a few thousand
// multiplies per dual variable, so 1e-9 relative slack is generous.
const Tolerance = 1e-9

// IsCover reports whether the vertex set marked true in cover touches every
// edge of g. If not, it returns one uncovered edge id as a witness.
func IsCover(g *graph.Graph, cover []bool) (ok bool, witness graph.EdgeID) {
	ep := g.EdgeEndpoints()
	for e := 0; e < g.NumEdges(); e++ {
		u, v := ep[2*e], ep[2*e+1]
		if !cover[u] && !cover[v] {
			return false, graph.EdgeID(e)
		}
	}
	return true, -1
}

// CoverWeight returns the total weight of the vertices marked true.
func CoverWeight(g *graph.Graph, cover []bool) float64 {
	t := 0.0
	for v := 0; v < g.NumVertices(); v++ {
		if cover[v] {
			t += g.Weight(graph.Vertex(v))
		}
	}
	return t
}

// DualFeasible checks the fractional-matching constraints of Observation
// 3.1: x_e >= 0 for all e and sum_{e∋v} x_e <= w(v) (with tolerance) for all
// v. It returns a descriptive error naming the first violated constraint:
// the first bad x_e, else the first overloaded vertex.
//
// The vertex sums accumulate in one sweep over the edges in id order. Rows
// are sorted and edge ids are lexicographic, so a vertex's adjacency order is
// increasing edge-id order, and each sum is the one the vertex's row gives,
// bit for bit.
func DualFeasible(g *graph.Graph, x []float64) error {
	if len(x) != g.NumEdges() {
		return fmt.Errorf("verify: dual vector length %d, want %d", len(x), g.NumEdges())
	}
	ep := g.EdgeEndpoints()
	sum := make([]float64, g.NumVertices())
	for e, xe := range x {
		if xe < -Tolerance || math.IsNaN(xe) || math.IsInf(xe, 0) {
			return fmt.Errorf("verify: x[%d] = %v violates nonnegativity", e, xe)
		}
		sum[ep[2*e]] += xe
		sum[ep[2*e+1]] += xe
	}
	for v, w := range g.Weights() {
		if sum[v] > w*(1+Tolerance)+Tolerance {
			return fmt.Errorf("verify: vertex %d dual constraint violated: sum=%v > w=%v", v, sum[v], w)
		}
	}
	return nil
}

// DualValue returns the fractional-matching value sum_e x_e, which by weak
// duality (Lemma 3.2) lower-bounds the weight of every vertex cover.
func DualValue(x []float64) float64 {
	t := 0.0
	for _, xe := range x {
		t += xe
	}
	return t
}

// Certificate bundles a cover with a feasible dual solution, yielding a
// machine-checkable approximation guarantee with no reference to OPT:
// OPT >= DualValue, so Ratio = weight/DualValue >= weight/OPT.
type Certificate struct {
	Cover  []bool
	Duals  []float64
	Weight float64 // cover weight
	Bound  float64 // dual value: certified lower bound on OPT
}

// NewCertificate validates the pair and computes the certified ratio fields.
func NewCertificate(g *graph.Graph, cover []bool, x []float64) (*Certificate, error) {
	if len(cover) != g.NumVertices() {
		return nil, fmt.Errorf("verify: cover length %d, want %d", len(cover), g.NumVertices())
	}
	if ok, e := IsCover(g, cover); !ok {
		u, v := g.Edge(e)
		return nil, fmt.Errorf("verify: edge %d=(%d,%d) uncovered", e, u, v)
	}
	if err := DualFeasible(g, x); err != nil {
		return nil, err
	}
	return &Certificate{
		Cover:  cover,
		Duals:  x,
		Weight: CoverWeight(g, cover),
		Bound:  DualValue(x),
	}, nil
}

// NewLiftedCertificate validates (cover, x) against g exactly like
// NewCertificate and then adds forcedWeight — the weight of vertices a sound
// kernelization committed to the cover — to the certified lower bound. The
// addition is sound because each reduction rule preserves the optimum
// exactly: OPT(g) = forcedWeight + OPT(kernel) ≥ forcedWeight + Σx, where x
// is feasible on the kernel (and, re-indexed with zeros elsewhere, on g).
// With forcedWeight 0 this is NewCertificate bit for bit.
func NewLiftedCertificate(g *graph.Graph, cover []bool, x []float64, forcedWeight float64) (*Certificate, error) {
	c, err := NewCertificate(g, cover, x)
	if err != nil {
		return nil, err
	}
	if forcedWeight != 0 {
		c.Bound += forcedWeight
	}
	return c, nil
}

// Ratio returns the certified approximation ratio Weight/Bound. For an
// edgeless graph both are zero and the ratio is defined as 1.
func (c *Certificate) Ratio() float64 {
	if c.Bound == 0 {
		if c.Weight == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return c.Weight / c.Bound
}

// LocalRatio is the Bar-Yehuda–Even local-ratio pass (the edge packing of
// PAPERS.md cs/0205037): for each vertex v of live in order, while v is
// uncovered, and each neighbor u > v in v's row while u is uncovered, it
// raises x_e by δ = min(gap[v], gap[u]), lowers both gaps by δ, and covers
// a vertex whose gap reaches 0. gap holds each vertex's residual weight,
// w(v) minus the duals already raised on its edges, so a feasible x stays
// feasible, and every edge it scans leaves with an endpoint covered.
//
// Rows are sorted and edge ids lexicographic, so with live ascending the
// pass visits its edges in increasing id order. Subtracting the minimum
// zeroes the smaller gap exactly (a − a = 0 in floating point), so every
// vertex the pass covers is saturated bit for bit.
//
//mwvc:hotpath
func LocalRatio(g *graph.Graph, live []graph.Vertex, gap, x []float64, cover []bool) {
	for _, v := range live {
		if cover[v] {
			continue
		}
		nbrs := g.Neighbors(v)
		ids := g.IncidentEdges(v)
		for j, u := range nbrs {
			if u < v || cover[u] {
				continue
			}
			d := gap[v]
			if gap[u] < d {
				d = gap[u]
			}
			x[ids[j]] += d
			gap[v] -= d
			gap[u] -= d
			if gap[u] <= 0 {
				cover[u] = true
			}
			if gap[v] <= 0 {
				cover[v] = true
				break
			}
		}
	}
}

// BarYehudaEven is LocalRatio started from zero duals on every vertex of
// g: the linear-time sequential 2-approximation. Every covered vertex is
// saturated, so the cover weighs at most 2·Σx ≤ 2·OPT, and x is the
// feasible fractional matching that certifies it.
func BarYehudaEven(g *graph.Graph) (cover []bool, x []float64) {
	n := g.NumVertices()
	live := make([]graph.Vertex, n)
	for v := range live {
		live[v] = graph.Vertex(v)
	}
	cover = make([]bool, n)
	x = make([]float64, g.NumEdges())
	LocalRatio(g, live, slices.Clone(g.Weights()), x, cover)
	return cover, x
}
