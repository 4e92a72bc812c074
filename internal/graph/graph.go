package graph

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Vertex is the integer id of a vertex, in [0, NumVertices()).
type Vertex = int32

// EdgeID is the integer id of an undirected edge, in [0, NumEdges()).
type EdgeID = int32

// Graph is an immutable undirected simple graph with vertex weights, stored
// in CSR (compressed sparse row) form: four flat arrays and nothing else.
// Construct one with a Builder or a CSRBuilder; the zero value is an empty
// graph.
//
// Memory layout (n vertices, m undirected edges):
//
//	weights    n  × 8 bytes   vertex weights
//	offsets  n+1  × 4 bytes   row offsets into neighbors/slotEdges
//	neighbors 2m  × 4 bytes   adjacency targets, sorted per row
//	slotEdges 2m  × 4 bytes   undirected edge id per adjacency slot
//	endpoints 2m  × 4 bytes   edge id → (u, v) with u < v
//
// i.e. 8n + 12m + O(1) bytes for an unweighted graph's structure — about
// 12 MB per million edges — with no per-vertex slice headers or pointers
// for the garbage collector to trace.
type Graph struct {
	weights   []float64 // len n; positive vertex weights
	offsets   []uint32  // len n+1; CSR row offsets into neighbors/slotEdges
	neighbors []Vertex  // len 2m; adjacency targets
	slotEdges []EdgeID  // len 2m; undirected edge id per adjacency slot
	endpoints []Vertex  // len 2m; endpoints[2e], endpoints[2e+1] = (u, v), u < v
}

// NumVertices returns n, the number of vertices.
func (g *Graph) NumVertices() int { return len(g.weights) }

// NumEdges returns m, the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.endpoints) / 2 }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v Vertex) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the adjacency list of v. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v Vertex) []Vertex {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// IncidentEdges returns, slot-aligned with Neighbors(v), the undirected edge
// ids of the edges incident to v. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) IncidentEdges(v Vertex) []EdgeID {
	return g.slotEdges[g.offsets[v]:g.offsets[v+1]]
}

// Edge returns the endpoints (u, v) of edge e with u < v.
func (g *Graph) Edge(e EdgeID) (Vertex, Vertex) {
	return g.endpoints[2*e], g.endpoints[2*e+1]
}

// EdgeEndpoints returns the flat endpoint array: entry 2e is the smaller
// endpoint of edge e and entry 2e+1 the larger. Edge ids are assigned in
// lexicographic (min, max) order, so the array is sorted by pairs. It
// aliases internal storage and must not be modified; per-edge hot loops
// iterate it directly instead of calling Edge per id.
func (g *Graph) EdgeEndpoints() []Vertex { return g.endpoints }

// Weight returns the weight of vertex v.
func (g *Graph) Weight(v Vertex) float64 { return g.weights[v] }

// Weights returns the full weight slice. It aliases internal storage and
// must not be modified.
func (g *Graph) Weights() []float64 { return g.weights }

// TotalWeight returns the sum of all vertex weights.
func (g *Graph) TotalWeight() float64 {
	t := 0.0
	for _, w := range g.weights {
		t += w
	}
	return t
}

// AverageDegree returns 2m/n, or 0 for the empty graph.
func (g *Graph) AverageDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(g.NumVertices())
}

// MaxDegree returns the maximum degree Δ, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(Vertex(v)); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// HasEdge reports whether u and v are adjacent. It runs a binary search over
// u's (sorted) adjacency list, so it costs O(log deg(u)).
//
//mwvc:hotpath
func (g *Graph) HasEdge(u, v Vertex) bool {
	adj := g.Neighbors(u)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == v
}

// EdgeBetween returns the edge id joining u and v, or -1 if none exists.
func (g *Graph) EdgeBetween(u, v Vertex) EdgeID {
	adj := g.Neighbors(u)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(adj) && adj[lo] == v {
		return g.IncidentEdges(u)[lo]
	}
	return -1
}

// Other returns the endpoint of edge e that is not v. It panics if v is not
// an endpoint of e.
func (g *Graph) Other(e EdgeID, v Vertex) Vertex {
	a, b := g.endpoints[2*e], g.endpoints[2*e+1]
	switch v {
	case a:
		return b
	case b:
		return a
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %d", v, e))
}

// Validate checks structural invariants: offsets monotone, adjacency sorted,
// edge ids consistent with endpoints, weights positive and finite. It is
// primarily used by tests and by deserialization.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.offsets) != n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), n+1)
	}
	if g.offsets[0] != 0 {
		return errors.New("graph: offsets[0] != 0")
	}
	if g.offsets[n] != uint32(len(g.neighbors)) {
		return errors.New("graph: offsets[n] != len(neighbors)")
	}
	if len(g.neighbors) != len(g.slotEdges) {
		return errors.New("graph: neighbors/slotEdges length mismatch")
	}
	if len(g.neighbors) != 2*g.NumEdges() {
		return errors.New("graph: adjacency slot count != 2m")
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
		w := g.weights[v]
		if !(w > 0) || math.IsInf(w, 0) {
			return fmt.Errorf("graph: weight of vertex %d is %v, want positive finite", v, w)
		}
		adj := g.Neighbors(Vertex(v))
		ids := g.IncidentEdges(Vertex(v))
		for i, u := range adj {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: neighbor %d of vertex %d out of range", u, v)
			}
			if u == Vertex(v) {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > 0 && adj[i-1] >= u {
				return fmt.Errorf("graph: adjacency of vertex %d not strictly sorted", v)
			}
			e := ids[i]
			if e < 0 || int(e) >= g.NumEdges() {
				return fmt.Errorf("graph: edge id %d out of range at vertex %d", e, v)
			}
			a, b := g.endpoints[2*e], g.endpoints[2*e+1]
			if !(a == Vertex(v) && b == u) && !(b == Vertex(v) && a == u) {
				return fmt.Errorf("graph: edge %d endpoints (%d,%d) do not match slot (%d,%d)", e, a, b, v, u)
			}
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		if g.endpoints[2*e] >= g.endpoints[2*e+1] {
			return fmt.Errorf("graph: edge %d endpoints not ordered: (%d,%d)", e, g.endpoints[2*e], g.endpoints[2*e+1])
		}
	}
	return nil
}

// inducedScratch pools the n-sized old→new index arrays used by Induced.
// Pooled slices uphold the invariant that every entry is -1; borrowers reset
// the entries they touched before returning a slice (O(|vertices|), not
// O(n)), so repeated Induced calls allocate no per-call index map.
var inducedScratch sync.Pool

// borrowIndex returns an all -1 index slice of length ≥ n.
func borrowIndex(n int) []Vertex {
	if p, _ := inducedScratch.Get().(*[]Vertex); p != nil && cap(*p) >= n {
		return (*p)[:cap(*p)]
	}
	s := make([]Vertex, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// returnIndex resets the touched entries of s (the first `used` entries of
// vertices, all in range) and returns it to the pool.
func returnIndex(s []Vertex, vertices []Vertex, used int) {
	for _, v := range vertices[:used] {
		s[v] = -1
	}
	inducedScratch.Put(&s)
}

// Induced returns the subgraph induced by the given vertex set together with
// a mapping from new vertex ids to original ids. Vertices may be listed in
// any order; duplicates are rejected.
func (g *Graph) Induced(vertices []Vertex) (*Graph, []Vertex, error) {
	toNew := borrowIndex(g.NumVertices())
	for i, v := range vertices {
		if v < 0 || int(v) >= g.NumVertices() {
			returnIndex(toNew, vertices, i)
			return nil, nil, fmt.Errorf("graph: induced vertex %d out of range", v)
		}
		if toNew[v] >= 0 {
			returnIndex(toNew, vertices, i)
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in induced set", v)
		}
		toNew[v] = Vertex(i)
	}
	b := NewBuilder(len(vertices))
	orig := make([]Vertex, len(vertices))
	for i, v := range vertices {
		orig[i] = v
		b.SetWeight(Vertex(i), g.Weight(v))
	}
	for _, v := range vertices {
		nv := toNew[v]
		for _, u := range g.Neighbors(v) {
			if nu := toNew[u]; nu >= 0 && nv < nu {
				b.AddEdge(nv, nu)
			}
		}
	}
	returnIndex(toNew, vertices, len(vertices))
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, orig, nil
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d, avg_deg=%.2f)", g.NumVertices(), g.NumEdges(), g.AverageDegree())
}
