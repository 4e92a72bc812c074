package pdfast

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/verify"
)

func testGraph(seed uint64, n int, d float64) *graph.Graph {
	return gen.ApplyWeights(gen.GnpAvgDegree(seed, n, d), seed+1, gen.UniformRange{Lo: 1, Hi: 100})
}

func TestCoverAndCertificate(t *testing.T) {
	g := testGraph(3, 2000, 16)
	res, err := Run(context.Background(), g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := verify.NewCertificate(g, res.Cover, res.Duals)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Ratio() > 2+1e-9 {
		t.Fatalf("certified ratio %v exceeds 2", cert.Ratio())
	}
	if res.Rounds <= 0 || res.Rounds > g.NumVertices() {
		t.Fatalf("implausible round count %d", res.Rounds)
	}
}

func TestStarTakesCheapCenter(t *testing.T) {
	b := graph.NewBuilder(11)
	b.SetWeight(0, 1)
	for v := 1; v < 11; v++ {
		b.SetWeight(graph.Vertex(v), 100)
		b.AddEdge(0, graph.Vertex(v))
	}
	g := b.MustBuild()
	res, err := Run(context.Background(), g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cover[0] {
		t.Fatal("pdfast skipped the cheap star center")
	}
	if w := verify.CoverWeight(g, res.Cover); w > 2+1e-9 {
		t.Fatalf("star cover weight %v, want ≤ 2", w)
	}
}

func TestParallelBitIdentical(t *testing.T) {
	g := testGraph(7, 5000, 24)
	serial, err := Run(context.Background(), g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 13} {
		par, err := Run(context.Background(), g, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if par.Rounds != serial.Rounds {
			t.Fatalf("workers=%d: rounds %d != serial %d", workers, par.Rounds, serial.Rounds)
		}
		for v := range serial.Cover {
			if par.Cover[v] != serial.Cover[v] {
				t.Fatalf("workers=%d: cover differs at vertex %d", workers, v)
			}
		}
		for e := range serial.Duals {
			if math.Float64bits(par.Duals[e]) != math.Float64bits(serial.Duals[e]) {
				t.Fatalf("workers=%d: dual differs at edge %d: %v != %v",
					workers, e, par.Duals[e], serial.Duals[e])
			}
		}
	}
}

func TestEdgelessAndEmpty(t *testing.T) {
	empty, err := graph.FromEdgeList(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), empty, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cover) != 0 || res.Rounds != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
	lone, err := graph.FromEdgeList(5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(context.Background(), lone, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, in := range res.Cover {
		if in {
			t.Fatalf("edgeless vertex %d in cover", v)
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testGraph(1, 100, 4), 1, nil); err == nil {
		t.Fatal("cancelled Run returned nil error")
	}
}

func TestObserverRounds(t *testing.T) {
	// Big enough to clear roundCutoff, so both stages emit.
	g := testGraph(5, 4000, 16)
	var rounds, finals int
	obs := solver.ObserverFunc(func(e solver.Event) {
		switch e.Kind {
		case solver.KindRound:
			rounds++
			if e.Round != rounds {
				t.Fatalf("round event out of order: %+v", e)
			}
		case solver.KindFinalPhase:
			finals++
		default:
			t.Fatalf("unexpected event %+v", e)
		}
	})
	res, err := Run(context.Background(), g, 1, obs)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != res.Rounds || res.Rounds < 1 {
		t.Fatalf("%d round events for %d reported rounds", rounds, res.Rounds)
	}
	if finals > 1 {
		t.Fatalf("%d final-phase events", finals)
	}
}

// TestSteadyStateAllocations pins the near-zero-allocation claim: a solve
// allocates its seven flat arrays plus fixed bookkeeping, never per-edge or
// per-round memory on the serial path.
func TestSteadyStateAllocations(t *testing.T) {
	g := testGraph(9, 4000, 32)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(context.Background(), g, 1, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("serial Run allocates %v objects per solve, want ≤ 12", allocs)
	}
}

func TestRegistered(t *testing.T) {
	reg, ok := solver.Lookup("pdfast")
	if !ok {
		t.Fatal("pdfast not registered")
	}
	if reg.Tier != solver.TierFast {
		t.Fatalf("pdfast tier %q, want %q", reg.Tier, solver.TierFast)
	}
	g := testGraph(11, 300, 6)
	out, err := reg.Solver.Solve(context.Background(), g, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.NewCertificate(g, out.Cover, out.Duals); err != nil {
		t.Fatalf("pdfast: %v", err)
	}
}
