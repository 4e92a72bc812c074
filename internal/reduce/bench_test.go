package reduce

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// hubWheel returns a hub-first wheel: vertex 0 joined to every vertex of the
// cycle 1..n-1. With hub weight hubW above every cycle weight (unit) no rule
// applies, so one domination sweep visits every cycle vertex with the hub
// still alive and first in its adjacency row.
func hubWheel(n int, hubW float64) *graph.Graph {
	b := graph.NewBuilder(n)
	b.SetWeight(0, hubW)
	for v := 1; v < n; v++ {
		b.AddEdge(0, graph.Vertex(v))
		next := v + 1
		if next == n {
			next = 1
		}
		b.AddEdge(graph.Vertex(v), graph.Vertex(next))
	}
	return b.MustBuild()
}

// BenchmarkRun times a whole reduction on three shapes: the dense mpc-dense
// input, where nothing reduces and the domination sweep is all the work;
// an RMAT-16 graph, where the rules cascade; and a 200k-vertex hub-first
// wheel, which costs O(n·Δ) if the sweep ever walks the hub's row once per
// cycle vertex.
func BenchmarkRun(b *testing.B) {
	uniform := gen.UniformRange{Lo: 1, Hi: 100}
	cases := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"gnp-n8000-d256", func() *graph.Graph {
			return gen.ApplyWeights(gen.GnpAvgDegree(1, 8000, 256), 1, uniform)
		}},
		{"rmat-16", func() *graph.Graph {
			return gen.ApplyWeights(gen.RMAT(1, 16, 8, 0.57, 0.19, 0.19), 1, uniform)
		}},
		{"hub-wheel-200k", func() *graph.Graph { return hubWheel(200_000, 2) }},
	}
	for _, c := range cases {
		g := c.build()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
