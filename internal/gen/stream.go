package gen

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// EdgeEmitter receives one edge of a generator's edge stream per call.
type EdgeEmitter func(u, v graph.Vertex)

// Every generator in this package is deterministic given its seed, and the
// streamable ones below expose that determinism directly: an Emit* function
// produces the identical edge sequence every time it is called with the
// same arguments. That is exactly the contract the two-pass CSRBuilder
// wants, so FromStream assembles a Graph by simply running the emitter
// twice — no edge-list buffer exists at any point, for generation or for
// construction. The same emitters back `mwvc-gen -stream`, which writes the
// edge stream to disk without materializing the graph at all.

// FromStream builds a graph on n vertices by replaying a deterministic edge
// stream through the two passes of a CSRBuilder. It panics on error: the
// Emit* streams are correct by construction (in-range endpoints, no
// self-loops).
func FromStream(n int, stream func(EdgeEmitter)) *graph.Graph {
	c := graph.NewCSRBuilder(n)
	var err error
	stream(func(u, v graph.Vertex) {
		if err == nil {
			err = c.CountEdge(u, v)
		}
	})
	if err == nil {
		err = c.EndCount()
	}
	stream(func(u, v graph.Vertex) {
		if err == nil {
			err = c.AddEdge(u, v)
		}
	})
	if err != nil {
		panic(fmt.Sprintf("gen: streamed build failed: %v", err))
	}
	g, err := c.Build()
	if err != nil {
		panic(fmt.Sprintf("gen: streamed build failed: %v", err))
	}
	return g
}

// EmitGnp streams the edges of the Erdős–Rényi graph G(n, p) for the given
// seed, using geometric skipping (O(n + m), no quadratic scan). The stream
// is deterministic: same arguments, same sequence.
func EmitGnp(seed uint64, n int, p float64, emit EdgeEmitter) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: Gnp probability %v out of [0,1]", p))
	}
	if p <= 0 || n <= 1 {
		return
	}
	src := rng.New(seed).Split('g', 'n', 'p')
	if p == 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				emit(graph.Vertex(u), graph.Vertex(v))
			}
		}
		return
	}
	// Walk the strictly-upper-triangular adjacency matrix in row-major
	// order, jumping geometric(p) positions between successive edges.
	logq := math.Log1p(-p)
	u, v := 0, 0 // current column within row u is v (v>u required)
	for {
		skip := int(math.Floor(math.Log(1-src.Float64()) / logq))
		v += 1 + skip
		for v >= n {
			overflow := v - n
			u++
			v = u + 1 + overflow
			if u >= n-1 {
				return
			}
		}
		emit(graph.Vertex(u), graph.Vertex(v))
	}
}

// EmitRandomBipartite streams the edges of the random bipartite graph on
// nLeft+nRight vertices where each cross pair appears with probability p.
func EmitRandomBipartite(seed uint64, nLeft, nRight int, p float64, emit EdgeEmitter) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: RandomBipartite probability %v out of [0,1]", p))
	}
	if p <= 0 || nLeft == 0 || nRight == 0 {
		return
	}
	src := rng.New(seed).Split('b', 'i', 'p')
	if p == 1 {
		for u := 0; u < nLeft; u++ {
			for v := 0; v < nRight; v++ {
				emit(graph.Vertex(u), graph.Vertex(nLeft+v))
			}
		}
		return
	}
	// Geometric skipping over the nLeft×nRight grid.
	logq := math.Log1p(-p)
	idx := -1
	total := nLeft * nRight
	for {
		skip := int(math.Floor(math.Log(1-src.Float64()) / logq))
		idx += 1 + skip
		if idx >= total {
			return
		}
		u, v := idx/nRight, idx%nRight
		emit(graph.Vertex(u), graph.Vertex(nLeft+v))
	}
}

// EmitGrid streams the edges of the rows×cols grid graph.
func EmitGrid(rows, cols int, emit EdgeEmitter) {
	id := func(r, c int) graph.Vertex { return graph.Vertex(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				emit(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				emit(id(r, c), id(r+1, c))
			}
		}
	}
}

// EmitStar streams the edges of the star with center 0 and n-1 leaves.
func EmitStar(n int, emit EdgeEmitter) {
	for v := 1; v < n; v++ {
		emit(0, graph.Vertex(v))
	}
}
