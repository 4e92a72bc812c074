package pdfast

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// benchGraph is a 1,047,265-edge G(65536, 32) instance with uniform weights,
// shared across benchmark iterations.
var benchGraph *graph.Graph

func getBenchGraph(b *testing.B) *graph.Graph {
	if benchGraph == nil {
		benchGraph = gen.ApplyWeights(gen.GnpAvgDegree(1, 1<<16, 32), 2, gen.UniformRange{Lo: 1, Hi: 100})
	}
	return benchGraph
}

func BenchmarkRunSerial(b *testing.B) {
	g := getBenchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), g, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunParallel(b *testing.B) {
	g := getBenchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), g, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
