package cclique

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/centralized"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/solver"
	"repro/internal/verify"
)

func TestRunProducesCertifiedCover(t *testing.T) {
	eps := 0.1
	g := gen.ApplyWeights(gen.GnpAvgDegree(3, 300, 12), 5, gen.UniformRange{Lo: 1, Hi: 10})
	res, err := Run(context.Background(), g, solver.Config{Epsilon: eps, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := verify.NewCertificate(g, res.Cover, res.X)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Ratio() > 2+10*eps+1e-9 {
		t.Fatalf("congested-clique ratio %v exceeds 2+10ε", cert.Ratio())
	}
}

func TestRoundsTrackLogDelta(t *testing.T) {
	eps := 0.1
	g := gen.GnpAvgDegree(4, 400, 16)
	res, err := Run(context.Background(), g, solver.Config{Epsilon: eps, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bound := 5 + int(math.Ceil(math.Log(float64(g.MaxDegree())+2)/math.Log(1/(1-eps))))
	if res.Rounds > bound {
		t.Fatalf("%d rounds exceed O(log Δ) bound %d", res.Rounds, bound)
	}
	if res.Rounds < 2 {
		t.Fatalf("implausibly few rounds: %d", res.Rounds)
	}
}

func TestPairCapsRespected(t *testing.T) {
	// Run must complete without tripping the substrate's per-pair cap —
	// i.e. the implementation really is a congested-clique algorithm.
	g := gen.ApplyWeights(gen.PreferentialAttachment(5, 200, 3), 2, gen.Exponential{Mean: 2})
	res, err := Run(context.Background(), g, solver.Config{Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalMessages == 0 {
		t.Fatal("no messages recorded")
	}
	if ok, _ := verify.IsCover(g, res.Cover); !ok {
		t.Fatal("not a cover")
	}
}

func TestEndpointDualsAgree(t *testing.T) {
	// Every edge carries one dual, which both endpoints' machines could
	// derive from the same two ratios and growth steps: it must be
	// positive, and feasible at both ends.
	g := gen.ApplyWeights(gen.GnpAvgDegree(6, 150, 8), 9, gen.UniformRange{Lo: 0.5, Hi: 5})
	res, err := Run(context.Background(), g, solver.Config{Epsilon: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.DualFeasible(g, res.X); err != nil {
		t.Fatal(err)
	}
	for e, x := range res.X {
		if g.NumEdges() > 0 && !(x > 0) {
			t.Fatalf("edge %d has dual %v, want positive", e, x)
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	if _, err := Run(context.Background(), graph.NewBuilder(0).MustBuild(), solver.Config{Epsilon: 0.1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), graph.NewBuilder(3).MustBuild(), solver.Config{Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res.Cover {
		if in {
			t.Fatal("edgeless vertex covered")
		}
	}
	if _, err := Run(context.Background(), gen.Path(4), solver.Config{Epsilon: 0.5, Seed: 1}); err == nil {
		t.Fatal("bad epsilon accepted")
	}
}

func TestDeterminism(t *testing.T) {
	g := gen.ApplyWeights(gen.GnpAvgDegree(8, 200, 10), 3, gen.UniformRange{Lo: 1, Hi: 4})
	a, err := Run(context.Background(), g, solver.Config{Epsilon: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), g, solver.Config{Epsilon: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Cover {
		if a.Cover[v] != b.Cover[v] {
			t.Fatal("same seed, different covers")
		}
	}
	if a.Rounds != b.Rounds {
		t.Fatal("same seed, different rounds")
	}
}

// TestMetricsPinned pins the round count and every cluster metric on E9's
// quick inputs at seed 1 (built as runE9 builds them) and on a 60-vertex
// star. The golden digests hash cover, duals, rounds and events, but no
// metric.
func TestMetricsPinned(t *testing.T) {
	e9 := func(n int, d float64) *graph.Graph {
		return gen.ApplyWeights(gen.GnpAvgDegree(1+uint64(n), n, d), 31, gen.UniformRange{Lo: 1, Hi: 10})
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		seed uint64
		want mpc.Metrics
	}{
		{"e9-500-16", e9(500, 16), 32, mpc.Metrics{Rounds: 15, MaxResidentWords: 232, MaxSentWords: 27, MaxRecvWords: 27, TotalWords: 15306, TotalMessages: 15306}},
		{"e9-1000-32", e9(1000, 32), 32, mpc.Metrics{Rounds: 19, MaxResidentWords: 432, MaxSentWords: 52, MaxRecvWords: 52, TotalWords: 62576, TotalMessages: 62576}},
		{"star-60", gen.Star(60), 1, mpc.Metrics{Rounds: 3, MaxResidentWords: 488, MaxSentWords: 59, MaxRecvWords: 59, TotalWords: 177, TotalMessages: 177}},
	} {
		res, err := Run(context.Background(), tc.g, solver.Config{Epsilon: 0.1, Seed: tc.seed})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Rounds != tc.want.Rounds || res.Metrics != tc.want {
			t.Errorf("%s: rounds %d, metrics %+v; want %+v", tc.name, res.Rounds, res.Metrics, tc.want)
		}
	}
}

// TestMatchesCentralized checks that congested-clique computes exactly what
// Algorithm 1's loop computes: on every input both fail, or both return the
// same cover and the same dual bits, with Rounds = Iterations + 2 (setup,
// one round per iteration, termination detection).
func TestMatchesCentralized(t *testing.T) {
	shapes := []struct {
		name string
		g    func(seed uint64) *graph.Graph
	}{
		{"gnp", func(seed uint64) *graph.Graph { return gen.GnpAvgDegree(seed, 120, 10) }},
		{"powerlaw", func(seed uint64) *graph.Graph { return gen.PreferentialAttachment(seed, 120, 3) }},
		{"bipartite", func(seed uint64) *graph.Graph { return gen.RandomBipartite(seed, 40, 60, 0.1) }},
		{"grid", func(uint64) *graph.Graph { return gen.Grid(8, 9) }},
		{"star", func(uint64) *graph.Graph { return gen.Star(30) }},
	}
	type input struct {
		name string
		g    *graph.Graph
		eps  float64
		seed uint64
	}
	var inputs []input
	for _, sh := range shapes {
		for _, model := range gen.StandardModels() {
			for seed := uint64(1); seed <= 3; seed++ {
				g := gen.ApplyWeights(sh.g(seed), seed+100, model)
				for _, eps := range []float64{0.05, 0.1} {
					inputs = append(inputs, input{fmt.Sprintf("%s/%s/%d/%v", sh.name, model.Name(), seed, eps), g, eps, seed})
				}
			}
		}
	}
	// A star whose weights mix a subnormal, [1, 2) and a value near the
	// float maximum: the center weighs 11 ulps of the smallest subnormal and
	// has three neighbors, so its degree-aware share w/3 rounds up to 4 ulps
	// per edge and the initial matching already exceeds its weight. Both
	// solvers must refuse it.
	b := graph.NewBuilder(4)
	for v, w := range []float64{11 * math.SmallestNonzeroFloat64, 1.5, 1.25, 1.7e308} {
		b.SetWeight(graph.Vertex(v), w)
	}
	for v := 1; v < 4; v++ {
		b.AddEdge(0, graph.Vertex(v))
	}
	inputs = append(inputs, input{"subnormal-star", b.MustBuild(), 0.1, 1})

	failures := 0
	for _, in := range inputs {
		got, err := Run(context.Background(), in.g, solver.Config{Epsilon: in.eps, Seed: in.seed})
		want, wantErr := centralized.Run(context.Background(), centralized.Instance{G: in.g},
			centralized.Options{Epsilon: in.eps, Seed: in.seed})
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: congested-clique error %v, centralized error %v", in.name, err, wantErr)
		}
		if err != nil {
			failures++
			continue
		}
		if got.Rounds != want.Iterations+2 {
			t.Fatalf("%s: %d rounds, want %d iterations + 2", in.name, got.Rounds, want.Iterations)
		}
		for v := range want.Cover {
			if got.Cover[v] != want.Cover[v] {
				t.Fatalf("%s: vertex %d covered %v, centralized %v", in.name, v, got.Cover[v], want.Cover[v])
			}
		}
		for e := range want.X {
			if math.Float64bits(got.X[e]) != math.Float64bits(want.X[e]) {
				t.Fatalf("%s: edge %d dual %v, centralized %v", in.name, e, got.X[e], want.X[e])
			}
		}
	}
	if failures != 1 {
		t.Fatalf("%d inputs failed on both solvers, want only the subnormal star", failures)
	}
}
