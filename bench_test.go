package mwvc_test

// The benchmark harness exposes every experiment from internal/experiments
// as a testing.B target (one per table/claim of the paper — see DESIGN.md's
// "Experiment index") plus per-algorithm micro-benchmarks. The experiment
// benches run the quick configuration; the full-size tables come from
// `go run ./cmd/mwvc-bench`.

import (
	"context"

	"testing"

	mwvc "repro"
	"repro/internal/baselines"
	"repro/internal/centralized"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Config{Quick: true, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1RoundsVsDegree(b *testing.B)   { benchExperiment(b, "E1") }
func BenchmarkE2ApproxRatio(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3MachineMemory(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4DegreeDecay(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5CentralizedIters(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6Coupling(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7VsLocalBaseline(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkE8DualitySandwich(b *testing.B)  { benchExperiment(b, "E8") }
func BenchmarkE9CongestedClique(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkE10Ablations(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11GlobalMemory(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12Throughput(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE13Unweighted(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14Koenig(b *testing.B)          { benchExperiment(b, "E14") }

// ---- per-algorithm micro-benchmarks on a shared midsize workload ----

func benchGraph(n int, d float64) *graph.Graph {
	return gen.ApplyWeights(gen.GnpAvgDegree(1, n, d), 2, gen.UniformRange{Lo: 1, Hi: 100})
}

// BenchmarkAlgorithmMPC times the Algorithm 2 phase driver alone, without
// the facade's reduce and verify stages. The n8k_d256 cases solve the
// mpc-dense benchmark input, G(8000, 256) with uniform weights in [1, 100)
// at seed 1, on both round schedules.
func BenchmarkAlgorithmMPC(b *testing.B) {
	dense := func() *graph.Graph {
		return gen.ApplyWeights(gen.GnpAvgDegree(1, 8000, 256), 1, gen.UniformRange{Lo: 1, Hi: 100})
	}
	for _, size := range []struct {
		name     string
		g        func() *graph.Graph
		gathered bool
	}{
		{"n4k_d32", func() *graph.Graph { return benchGraph(4000, 32) }, false},
		{"n16k_d64", func() *graph.Graph { return benchGraph(16000, 64) }, false},
		{"n16k_d256", func() *graph.Graph { return benchGraph(16000, 256) }, false},
		{"n8k_d256", dense, false},
		{"n8k_d256_gathered", dense, true},
	} {
		b.Run(size.name, func(b *testing.B) {
			g := size.g()
			b.ReportAllocs()
			b.ResetTimer()
			rounds := 0
			for i := 0; i < b.N; i++ {
				p := core.ParamsPractical(0.1, uint64(i)+1)
				var res *core.Result
				var err error
				if size.gathered {
					res, _, err = core.RunGathered(context.Background(), g, p, nil)
				} else {
					res, err = core.Run(context.Background(), g, p)
				}
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(g.NumEdges())/1e6, "Medges")
		})
	}
}

// BenchmarkAlgorithmCentralized times Algorithm 1 alone. n10k_d16 is the
// serve-mixed benchmark's graph shape, G(10000, 16) with uniform weights in
// [1, 100); below the switch-over Algorithm 1 is the whole mpc solve there.
func BenchmarkAlgorithmCentralized(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
		d    float64
	}{
		{"n16k_d64", 16000, 64},
		{"n10k_d16", 10000, 16},
	} {
		b.Run(size.name, func(b *testing.B) {
			g := benchGraph(size.n, size.d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := centralized.Run(context.Background(), centralized.Instance{G: g}, centralized.Options{Epsilon: 0.1, Seed: uint64(i) + 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAlgorithmBYE(b *testing.B) {
	g := benchGraph(16000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verify.BarYehudaEven(g)
	}
}

func BenchmarkAlgorithmGreedy(b *testing.B) {
	g := benchGraph(4000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.Greedy(g)
	}
}

// BenchmarkFacadeSolve times whole mwvc.Solve calls with the defaults
// (mpc, reduction on, GOMAXPROCS parallelism, no observer). The n8k_d256
// case is the mpc-dense benchmark input, G(8000, 256) with uniform weights
// in [1, 100) at seed 1: only domination could reduce it, so with two or
// more cores the pipeline solves beside reduce, and with one it runs them
// one after the other. `go test -bench FacadeSolve -cpu 1,2` shows what the
// overlap saves.
func BenchmarkFacadeSolve(b *testing.B) {
	for _, c := range []struct {
		name string
		g    func() *mwvc.Graph
	}{
		{"n4k_d32", func() *mwvc.Graph { return mwvc.RandomGraph(1, 4000, 32) }},
		{"n8k_d256", func() *mwvc.Graph {
			return gen.ApplyWeights(gen.GnpAvgDegree(1, 8000, 256), 1, gen.UniformRange{Lo: 1, Hi: 100})
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := c.g()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mwvc.Solve(context.Background(), g, mwvc.WithSeed(uint64(i)+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
