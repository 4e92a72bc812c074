package compress

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/verify"
)

func testGraph(seed uint64, n int, d float64) *graph.Graph {
	g := gen.GnpAvgDegree(seed, n, d)
	return gen.ApplyWeights(g, seed+1, gen.UniformRange{Lo: 1, Hi: 100})
}

func TestCompressedSolveIsValidAndCompressed(t *testing.T) {
	g := testGraph(7, 4000, 64)
	p := DefaultParams(0.1, 42)
	res, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Fatal("unexpected native fallback on a comfortably sized instance")
	}
	if ok, e := verify.IsCover(g, res.Cover); !ok {
		t.Fatalf("not a cover: edge %d uncovered", e)
	}
	scaled, alpha := res.FeasibleDual(g)
	if err := verify.DualFeasible(g, scaled); err != nil {
		t.Fatalf("rescaled duals infeasible: %v", err)
	}
	if alpha > 2 {
		t.Fatalf("violation factor %v implausibly large", alpha)
	}
	cert, err := verify.NewCertificate(g, res.Cover, scaled)
	if err != nil {
		t.Fatal(err)
	}
	if r := cert.Ratio(); r > 4.6 {
		t.Fatalf("certified ratio %v too weak", r)
	}

	// The compression accounting: 3 cluster rounds per compressed round
	// plus the final gather, and a simulated-LOCAL-round count per round.
	if res.Phases < 1 {
		t.Fatal("expected at least one compressed round")
	}
	if want := 3*res.Phases + 1; res.Rounds != want {
		t.Fatalf("rounds = %d, want 3·%d+1 = %d", res.Rounds, res.Phases, want)
	}
	if len(res.LocalRounds) != res.Phases || len(res.Groups) != res.Phases {
		t.Fatalf("per-round stats %d/%d, want %d", len(res.LocalRounds), len(res.Groups), res.Phases)
	}
	for i, k := range res.LocalRounds {
		native := core.ParamsPractical(0.1, 42).PhaseIterations(res.Groups[i], 0.1)
		if k != native {
			t.Fatalf("compressed round %d simulates %d LOCAL rounds, want the native budget %d (the guarantee depends on it)", i, k, native)
		}
		// The compression currency: simulated LOCAL rounds per accounted
		// communication round. Native spends 5 cluster rounds per phase on
		// the same k, so the compressed density must strictly exceed it.
		if k*5 <= native*3 {
			t.Fatalf("compressed round %d: %d LOCAL rounds over 3 cluster rounds does not beat native's %d over 5", i, k, native)
		}
	}
}

func TestCompressedFewerRoundsThanNative(t *testing.T) {
	g := testGraph(3, 3000, 48)
	cres, err := Run(context.Background(), g, DefaultParams(0.1, 9))
	if err != nil {
		t.Fatal(err)
	}
	nres, err := core.Run(context.Background(), g, core.ParamsPractical(0.1, 9))
	if err != nil {
		t.Fatal(err)
	}
	if cres.Rounds >= nres.Rounds {
		t.Fatalf("compressed rounds %d not below native %d", cres.Rounds, nres.Rounds)
	}
}

func TestCompressedSplitsOversizedGroups(t *testing.T) {
	g := testGraph(11, 1200, 24)
	p := DefaultParams(0.1, 5)
	// Shrink the per-machine memory so the fleet grows well beyond the
	// √d group count (splitting can only double groups up to the fleet
	// size), then set a gather budget below the initial √d-group load but
	// above the per-group load after a doubling or two.
	p.MemoryWords = func(int) int64 { return 12000 }
	p.GatherWords = func(int) int64 { return 2200 }
	res, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Fatal("splitting should have made the groups fit without falling back")
	}
	if res.Splits == 0 {
		t.Fatal("expected at least one partition split under the tightened gather budget")
	}
	if ok, e := verify.IsCover(g, res.Cover); !ok {
		t.Fatalf("not a cover after splits: edge %d uncovered", e)
	}
	if len(res.Groups) > 0 && res.Groups[0] <= DefaultParams(0.1, 5).NumMachines(24) {
		t.Fatalf("first round ran %d groups; splits should have increased it beyond √d", res.Groups[0])
	}
}

func TestCompressedFallsBackToNativeRounds(t *testing.T) {
	g := testGraph(13, 800, 32)
	p := DefaultParams(0.1, 4)
	// No partition can fit a 1-word gather budget, so after the splits
	// every phase must run on the native schedule.
	p.GatherWords = func(int) int64 { return 1 }
	compressEvents := 0
	p.Observer = solver.ObserverFunc(func(e solver.Event) {
		if e.Kind == solver.KindCompress {
			compressEvents++
		}
	})
	res, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Fatal("expected native fallback under an impossible gather budget")
	}
	if compressEvents != 0 || len(res.LocalRounds) != 0 {
		t.Fatalf("%d compression events and %d gathered phases, want none", compressEvents, len(res.LocalRounds))
	}
	if ok, e := verify.IsCover(g, res.Cover); !ok {
		t.Fatalf("fallback result not a cover: edge %d uncovered", e)
	}
	nres, err := core.Run(context.Background(), g, core.ParamsPractical(0.1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != nres.Rounds || res.Phases != nres.Phases {
		t.Fatalf("fallback rounds/phases %d/%d, native %d/%d — fallback must use native round structure",
			res.Rounds, res.Phases, nres.Rounds, nres.Phases)
	}
	if math.Float64bits(verify.CoverWeight(g, res.Cover)) != math.Float64bits(verify.CoverWeight(g, nres.Cover)) {
		t.Fatal("fallback cover differs from a direct native run with the same seed")
	}
	for v := range nres.Cover {
		if res.Cover[v] != nres.Cover[v] {
			t.Fatalf("fallback cover diverges from native at vertex %d", v)
		}
	}
	for e := range nres.X {
		if math.Float64bits(res.X[e]) != math.Float64bits(nres.X[e]) {
			t.Fatalf("fallback dual diverges from native at edge %d", e)
		}
	}
}

func TestCompressedValidatesParams(t *testing.T) {
	g := testGraph(1, 100, 8)
	p := DefaultParams(0.1, 1)
	p.PhaseIterations = nil
	if _, err := Run(context.Background(), g, p); err == nil {
		t.Fatal("nil PhaseIterations accepted")
	}
	p = DefaultParams(0.1, 1)
	p.Epsilon = 0.5
	if _, err := Run(context.Background(), g, p); err == nil {
		t.Fatal("epsilon 0.5 accepted")
	}
	if _, err := Run(context.Background(), nil, DefaultParams(0.1, 1)); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestCompressedCancellation(t *testing.T) {
	g := testGraph(17, 20000, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(ctx, g, DefaultParams(0.1, 2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}
