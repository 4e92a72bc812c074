package baselines

import (
	"context"

	"math"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

func TestBYECoverAndCertificate(t *testing.T) {
	g := gen.ApplyWeights(gen.Gnp(3, 200, 0.05), 5, gen.UniformRange{Lo: 1, Hi: 10})
	cover, x := verify.BarYehudaEven(g)
	cert, err := verify.NewCertificate(g, cover, x)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Ratio() > 2+1e-9 {
		t.Fatalf("BYE certified ratio %v exceeds 2", cert.Ratio())
	}
}

func TestBYEAgainstExact(t *testing.T) {
	f := func(seed uint64) bool {
		n := 5 + int(seed%10)
		g := gen.ApplyWeights(gen.Gnp(seed, n, 0.3), seed+1, gen.UniformRange{Lo: 0.5, Hi: 4})
		cover, _ := verify.BarYehudaEven(g)
		if ok, _ := verify.IsCover(g, cover); !ok {
			return false
		}
		_, opt, err := exact.Solve(context.Background(), g)
		if err != nil {
			t.Log(err)
			return false
		}
		return verify.CoverWeight(g, cover) <= 2*opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBYEStar(t *testing.T) {
	// Cheap center: BYE must take the center, not the leaves.
	b := graph.NewBuilder(11)
	b.SetWeight(0, 1)
	for v := 1; v < 11; v++ {
		b.SetWeight(graph.Vertex(v), 100)
		b.AddEdge(0, graph.Vertex(v))
	}
	g := b.MustBuild()
	cover, _ := verify.BarYehudaEven(g)
	if !cover[0] {
		t.Fatal("BYE skipped the cheap center")
	}
	if verify.CoverWeight(g, cover) > 2+1e-9 {
		t.Fatalf("BYE star weight %v", verify.CoverWeight(g, cover))
	}
}

func TestGreedyCovers(t *testing.T) {
	g := gen.ApplyWeights(gen.PreferentialAttachment(4, 500, 4), 9, gen.Exponential{Mean: 2})
	if ok, e := verify.IsCover(g, Greedy(g)); !ok {
		t.Fatalf("greedy left edge %d uncovered", e)
	}
}

func TestGreedyPrefersCheapHub(t *testing.T) {
	b := graph.NewBuilder(6)
	b.SetWeight(0, 1)
	for v := 1; v < 6; v++ {
		b.SetWeight(graph.Vertex(v), 10)
		b.AddEdge(0, graph.Vertex(v))
	}
	cover := Greedy(b.MustBuild())
	if !cover[0] || cover[1] {
		t.Fatalf("greedy cover %v, want just the hub", cover)
	}
}

func TestBaselinesOnEdgeless(t *testing.T) {
	g := graph.NewBuilder(4).MustBuild()
	cover, _ := verify.BarYehudaEven(g)
	if w := verify.CoverWeight(g, cover); w != 0 {
		t.Fatalf("BYE edgeless weight %v", w)
	}
	if w := verify.CoverWeight(g, Greedy(g)); w != 0 {
		t.Fatalf("greedy edgeless weight %v", w)
	}
}

func TestBYEDualFeasibleAlways(t *testing.T) {
	f := func(seed uint64) bool {
		n := 3 + int(seed%40)
		g := gen.ApplyWeights(gen.Gnp(seed, n, 0.2), seed+3, gen.Exponential{Mean: 1})
		cover, x := verify.BarYehudaEven(g)
		if err := verify.DualFeasible(g, x); err != nil {
			t.Log(err)
			return false
		}
		w := verify.CoverWeight(g, cover)
		return w <= 2*verify.DualValue(x)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyVsBYEQuality(t *testing.T) {
	// Neither dominates universally, but both should be within a small
	// factor of the dual bound on benign random instances.
	g := gen.ApplyWeights(gen.GnpAvgDegree(21, 400, 12), 4, gen.UniformRange{Lo: 1, Hi: 6})
	byeCover, byeDuals := verify.BarYehudaEven(g)
	greedy := Greedy(g)
	bound := verify.DualValue(byeDuals)
	wb := verify.CoverWeight(g, byeCover)
	wg := verify.CoverWeight(g, greedy)
	if wb > 2*bound+1e-9 {
		t.Fatalf("BYE weight %v exceeds 2x bound %v", wb, bound)
	}
	if wg > 4*bound {
		t.Fatalf("greedy weight %v implausibly poor vs bound %v", wg, bound)
	}
	if math.IsInf(wg, 0) || math.IsNaN(wg) {
		t.Fatal("greedy weight not finite")
	}
}
