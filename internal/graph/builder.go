package graph

import (
	"fmt"
)

// Builder accumulates vertices and edges and produces an immutable Graph.
// Vertices are pre-declared by count; weights default to 1 and may be
// overridden with SetWeight. Duplicate edges are merged; self-loops are
// rejected at Build time.
//
// Builder buffers the edge list in memory and is the convenience path for
// generators and tests; Build replays the buffered list through a
// CSRBuilder, so the assembled arrays are identical to the streaming path's
// and no comparison sort over the m edges is performed. For instances too
// large to buffer, stream edges through a CSRBuilder directly (or
// ReadStream, for on-disk instances).
type Builder struct {
	n       int
	weights []float64
	pairs   [][2]Vertex
}

// NewBuilder returns a Builder for a graph on n vertices, all with weight 1.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return &Builder{n: n, weights: w}
}

// NumVertices returns the declared vertex count.
func (b *Builder) NumVertices() int { return b.n }

// SetWeight sets the weight of vertex v. Weights must be positive and finite;
// violations surface at Build time.
func (b *Builder) SetWeight(v Vertex, w float64) *Builder {
	b.weights[v] = w
	return b
}

// SetWeights copies the given weights (which must have length n).
func (b *Builder) SetWeights(w []float64) *Builder {
	if len(w) != b.n {
		panic(fmt.Sprintf("graph: SetWeights length %d, want %d", len(w), b.n))
	}
	copy(b.weights, w)
	return b
}

// AddEdge records an undirected edge between u and v. Order of endpoints is
// irrelevant; duplicates are merged at Build time.
func (b *Builder) AddEdge(u, v Vertex) *Builder {
	b.pairs = append(b.pairs, [2]Vertex{u, v})
	return b
}

// Build validates and freezes the accumulated data into a Graph by replaying
// the buffered edge list through a two-pass CSRBuilder.
func (b *Builder) Build() (*Graph, error) {
	c := NewCSRBuilder(b.n)
	c.SetWeights(b.weights)
	for _, p := range b.pairs {
		if err := c.CountEdge(p[0], p[1]); err != nil {
			return nil, err
		}
	}
	if err := c.EndCount(); err != nil {
		return nil, err
	}
	for _, p := range b.pairs {
		if err := c.AddEdge(p[0], p[1]); err != nil {
			return nil, err
		}
	}
	return c.Build()
}

// MustBuild is Build but panics on error; for tests and generators whose
// inputs are correct by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdgeList builds a graph directly from an edge list and weights; a
// convenience wrapper used throughout tests and examples.
func FromEdgeList(n int, edges [][2]Vertex, weights []float64) (*Graph, error) {
	b := NewBuilder(n)
	if weights != nil {
		b.SetWeights(weights)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
