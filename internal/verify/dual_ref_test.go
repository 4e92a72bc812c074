package verify

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// dualFeasibleByRow is the per-vertex gather DualFeasible's edge sweep must
// reproduce: each vertex sums its row, and the vertices are checked in
// order after every edge passed the nonnegativity test.
func dualFeasibleByRow(g *graph.Graph, x []float64) error {
	if len(x) != g.NumEdges() {
		return fmt.Errorf("verify: dual vector length %d, want %d", len(x), g.NumEdges())
	}
	for e, xe := range x {
		if xe < -Tolerance || math.IsNaN(xe) || math.IsInf(xe, 0) {
			return fmt.Errorf("verify: x[%d] = %v violates nonnegativity", e, xe)
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		sum := 0.0
		for _, e := range g.IncidentEdges(graph.Vertex(v)) {
			sum += x[e]
		}
		w := g.Weight(graph.Vertex(v))
		if sum > w*(1+Tolerance)+Tolerance {
			return fmt.Errorf("verify: vertex %d dual constraint violated: sum=%v > w=%v", v, sum, w)
		}
	}
	return nil
}

// tightDuals returns the degree-aware fractional matching
// x_e = min(w(u)/d(u), w(v)/d(v)), which fills every vertex whose own share
// is the smaller one on all its edges to its weight.
func tightDuals(g *graph.Graph) []float64 {
	ep := g.EdgeEndpoints()
	x := make([]float64, g.NumEdges())
	for e := range x {
		u, v := ep[2*e], ep[2*e+1]
		x[e] = min(g.Weight(u)/float64(g.Degree(u)), g.Weight(v)/float64(g.Degree(v)))
	}
	return x
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestDualFeasibleMatchesRowGather compares DualFeasible with the row
// gather on duals that straddle the tolerance: the tight matching scaled by
// 1 ± a few Tolerance, jittered per edge, and sometimes carrying a slightly
// negative, NaN or infinite entry. The error texts print the violating sum
// at full precision, so they agree only if the sums are bit-identical.
func TestDualFeasibleMatchesRowGather(t *testing.T) {
	var graphs []*graph.Graph
	for seed := uint64(1); seed <= 4; seed++ {
		graphs = append(graphs,
			gen.ApplyWeights(gen.GnpAvgDegree(seed, 300, 12), seed, gen.UniformRange{Lo: 1, Hi: 100}),
			gen.ApplyWeights(gen.PreferentialAttachment(seed, 300, 4), seed, gen.Exponential{Mean: 3}),
			gen.ApplyWeights(gen.GnpAvgDegree(seed, 40, 30), seed, gen.UniformRange{Lo: 0.5, Hi: 2}),
			gen.ApplyWeights(gen.GnpAvgDegree(seed, 200, 1.5), seed, gen.UniformRange{Lo: 1, Hi: 10}),
		)
	}
	var accepted, vertexErrs, edgeErrs int
	for gi, g := range graphs {
		base := tightDuals(g)
		src := rng.New(uint64(gi) + 1)
		x := make([]float64, len(base))
		for trial := 0; trial < 24; trial++ {
			scale := 1 + float64(trial%6-2)*Tolerance
			for e, b := range base {
				x[e] = b * scale * (1 + (2*src.Float64()-1)*2*Tolerance)
			}
			if len(x) > 0 {
				switch trial % 8 {
				case 3:
					x[src.Intn(len(x))] = -Tolerance / 2
				case 5:
					x[src.Intn(len(x))] = -2 * Tolerance
				case 6:
					x[src.Intn(len(x))] = math.NaN()
				case 7:
					x[src.Intn(len(x))] = math.Inf(1)
				}
			}
			got, want := errText(DualFeasible(g, x)), errText(dualFeasibleByRow(g, x))
			if got != want {
				t.Fatalf("graph %d trial %d: sweep says %q, row gather says %q", gi, trial, got, want)
			}
			switch {
			case got == "<nil>":
				accepted++
			case strings.HasPrefix(got, "verify: vertex "):
				vertexErrs++
			default:
				edgeErrs++
			}
		}
	}
	if accepted == 0 || vertexErrs == 0 || edgeErrs == 0 {
		t.Fatalf("duals do not straddle the checks: %d accepted, %d vertex and %d edge violations", accepted, vertexErrs, edgeErrs)
	}
	if err := DualFeasible(graphs[0], nil); errText(err) != errText(dualFeasibleByRow(graphs[0], nil)) {
		t.Fatalf("length error differs: %v", err)
	}
}

// BenchmarkDualFeasible checks the tight matching on G(8000, 256), the
// mpc-dense input size, with the edge sweep and with the row gather.
func BenchmarkDualFeasible(b *testing.B) {
	g := gen.ApplyWeights(gen.GnpAvgDegree(1, 8000, 256), 1, gen.UniformRange{Lo: 1, Hi: 100})
	x := tightDuals(g)
	for _, c := range []struct {
		name  string
		check func(*graph.Graph, []float64) error
	}{{"sweep", DualFeasible}, {"rows", dualFeasibleByRow}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.check(g, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
