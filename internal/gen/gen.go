// Package gen produces the synthetic graph instances and vertex-weight
// models used by the experiments. All generators are deterministic given a
// seed, so every experiment table (DESIGN.md's "Experiment index") is
// exactly reproducible.
//
// The paper states its result for "any input graph with n vertices and
// average degree d"; the generators here sweep those two quantities across
// qualitatively different degree distributions (binomial, power-law,
// regular, bipartite, structured) because the round-compression argument is
// sensitive to degree spread (the V^high/V^inactive split exists precisely
// to handle skew).
package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Gnp returns an Erdős–Rényi G(n, p) graph. Edges are generated with the
// geometric skipping method, so the cost is O(n + m) rather than O(n²), and
// the graph is assembled by replaying the EmitGnp edge stream through the
// streaming CSR builder — no edge-list buffer even for huge instances.
func Gnp(seed uint64, n int, p float64) *graph.Graph {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: Gnp probability %v out of [0,1]", p))
	}
	return FromStream(n, func(emit EdgeEmitter) { EmitGnp(seed, n, p, emit) })
}

// GnpAvgDegree returns G(n, p) with p chosen so the expected average degree
// is d, i.e. p = d/(n-1).
func GnpAvgDegree(seed uint64, n int, d float64) *graph.Graph {
	if n <= 1 {
		return graph.NewBuilder(n).MustBuild()
	}
	p := d / float64(n-1)
	if p > 1 {
		p = 1
	}
	return Gnp(seed, n, p)
}

// PreferentialAttachment returns a Barabási–Albert power-law graph: vertices
// arrive one at a time and attach k edges to existing vertices chosen with
// probability proportional to their degree (plus one, so isolated seeds can
// be chosen). The resulting degree distribution has a heavy tail, which is
// the adversarial case for the paper's sampling argument.
func PreferentialAttachment(seed uint64, n, k int) *graph.Graph {
	if k < 1 {
		panic("gen: PreferentialAttachment requires k >= 1")
	}
	b := graph.NewBuilder(n)
	if n < 2 {
		return b.MustBuild()
	}
	src := rng.New(seed).Split('p', 'a')
	// targets holds one entry per half-edge endpoint (plus one per vertex),
	// so uniform sampling from it is degree-proportional sampling.
	targets := make([]graph.Vertex, 0, 2*n*k+n)
	targets = append(targets, 0)
	for v := 1; v < n; v++ {
		attach := k
		if v < k {
			attach = v
		}
		chosen := make([]graph.Vertex, 0, attach)
		for len(chosen) < attach {
			c := targets[src.Intn(len(targets))]
			dup := false
			for _, x := range chosen {
				if x == c {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, c)
			}
		}
		for _, u := range chosen {
			b.AddEdge(graph.Vertex(v), u)
			targets = append(targets, u)
		}
		targets = append(targets, graph.Vertex(v))
	}
	return b.MustBuild()
}

// RandomBipartite returns a random bipartite graph on nLeft+nRight vertices
// where each cross pair is an edge independently with probability p. Left
// vertices are 0..nLeft-1, right vertices nLeft..nLeft+nRight-1.
func RandomBipartite(seed uint64, nLeft, nRight int, p float64) *graph.Graph {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: RandomBipartite probability %v out of [0,1]", p))
	}
	return FromStream(nLeft+nRight, func(emit EdgeEmitter) {
		EmitRandomBipartite(seed, nLeft, nRight, p, emit)
	})
}

// RandomRegular returns a (near-)d-regular graph via the configuration
// model: d half-edges per vertex are paired uniformly at random; self-loops
// and duplicate pairs are discarded, so a few vertices may fall short of
// degree d (the deficit is tiny for d ≪ n, and the experiments only need
// "essentially regular").
func RandomRegular(seed uint64, n, d int) *graph.Graph {
	if d < 0 || d >= n {
		panic(fmt.Sprintf("gen: RandomRegular d=%d out of range for n=%d", d, n))
	}
	stubs := make([]graph.Vertex, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, graph.Vertex(v))
		}
	}
	src := rng.New(seed).Split('r', 'e', 'g')
	src.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u != v {
			b.AddEdge(u, v) // duplicates merged by the builder
		}
	}
	return b.MustBuild()
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *graph.Graph {
	return FromStream(rows*cols, func(emit EdgeEmitter) { EmitGrid(rows, cols, emit) })
}

// Star returns a star with one center (vertex 0) and n-1 leaves.
func Star(n int) *graph.Graph {
	return FromStream(n, func(emit EdgeEmitter) { EmitStar(n, emit) })
}

// Clique returns the complete graph K_n.
func Clique(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(graph.Vertex(u), graph.Vertex(v))
		}
	}
	return b.MustBuild()
}

// Path returns the path graph P_n.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(graph.Vertex(v), graph.Vertex(v+1))
	}
	return b.MustBuild()
}

// Cycle returns the cycle graph C_n (n >= 3).
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic("gen: Cycle requires n >= 3")
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(graph.Vertex(v), graph.Vertex((v+1)%n))
	}
	return b.MustBuild()
}

// CompleteBipartite returns K_{a,b}.
func CompleteBipartite(a, b int) *graph.Graph {
	bld := graph.NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			bld.AddEdge(graph.Vertex(u), graph.Vertex(a+v))
		}
	}
	return bld.MustBuild()
}

// PlantedCover returns a graph with a planted vertex cover: a random subset
// C of size coverSize is chosen, every one of m edges gets at least one
// endpoint in C, vertices in C receive low weights and vertices outside C
// high weights, so the planted set is a near-optimal cover. Useful for
// ratio experiments at scales where exact OPT is unavailable: w(C_planted)
// upper-bounds OPT.
//
// It returns the graph and the planted cover as a vertex list.
func PlantedCover(seed uint64, n, coverSize, m int, lowW, highW float64) (*graph.Graph, []graph.Vertex) {
	if coverSize <= 0 || coverSize > n {
		panic(fmt.Sprintf("gen: PlantedCover coverSize=%d out of range for n=%d", coverSize, n))
	}
	src := rng.New(seed).Split('p', 'l', 'a', 'n', 't')
	perm := src.Perm(n)
	cover := make([]graph.Vertex, coverSize)
	inCover := make([]bool, n)
	for i := 0; i < coverSize; i++ {
		cover[i] = graph.Vertex(perm[i])
		inCover[perm[i]] = true
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		if inCover[v] {
			b.SetWeight(graph.Vertex(v), lowW*(0.5+src.Float64()))
		} else {
			b.SetWeight(graph.Vertex(v), highW*(0.5+src.Float64()))
		}
	}
	for i := 0; i < m; i++ {
		c := cover[src.Intn(coverSize)]
		u := graph.Vertex(src.Intn(n))
		if u != c {
			b.AddEdge(c, u)
		}
	}
	return b.MustBuild(), cover
}
