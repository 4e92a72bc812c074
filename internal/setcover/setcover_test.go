package setcover

import (
	"context"

	"math"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/verify"
)

func TestValidate(t *testing.T) {
	good := &Instance{Weights: []float64{1, 2}, Elements: [][]int{{0, 1}, {1}}}
	f, err := good.Validate()
	if err != nil || f != 2 {
		t.Fatalf("f=%d err=%v", f, err)
	}
	bad := []*Instance{
		{Weights: []float64{0}, Elements: [][]int{{0}}},
		{Weights: []float64{1}, Elements: [][]int{{}}},
		{Weights: []float64{1}, Elements: [][]int{{1}}},
		{Weights: []float64{1}, Elements: [][]int{{0, 0}}},
		{Weights: []float64{math.Inf(1)}, Elements: [][]int{{0}}},
	}
	for i, in := range bad {
		if _, err := in.Validate(); err == nil {
			t.Errorf("bad instance %d accepted", i)
		}
	}
}

func TestSolveSimple(t *testing.T) {
	// Two elements; set 1 covers both cheaply.
	in := &Instance{
		Weights:  []float64{10, 3, 10},
		Elements: [][]int{{0, 1}, {1, 2}},
	}
	sol, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(in, sol); err != nil {
		t.Fatal(err)
	}
	if !sol.Chosen[1] || sol.Chosen[0] || sol.Chosen[2] {
		t.Fatalf("chosen %v, want only set 1", sol.Chosen)
	}
	if sol.Weight != 3 {
		t.Fatalf("weight %v", sol.Weight)
	}
}

func TestSolveHighFrequency(t *testing.T) {
	// f = 3: elements covered by triples.
	in := &Instance{
		Weights:  []float64{1, 1, 1, 1},
		Elements: [][]int{{0, 1, 2}, {1, 2, 3}, {0, 2, 3}},
	}
	sol, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Frequency != 3 {
		t.Fatalf("frequency %d, want 3", sol.Frequency)
	}
	if err := Verify(in, sol); err != nil {
		t.Fatal(err)
	}
	if sol.Weight > 3*sol.Bound+1e-9 {
		t.Fatalf("certificate broken: %v > 3·%v", sol.Weight, sol.Bound)
	}
}

func TestFromGraphAgreesWithBYE(t *testing.T) {
	// The f=2 projection and the direct BYE implementation execute the same
	// local-ratio scheme in the same edge order, so they must agree exactly.
	g := gen.ApplyWeights(gen.Gnp(7, 150, 0.06), 3, gen.UniformRange{Lo: 1, Hi: 10})
	in := FromGraph(g)
	sol, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(in, sol); err != nil {
		t.Fatal(err)
	}
	byeCover, _ := verify.BarYehudaEven(g)
	for v := range byeCover {
		if byeCover[v] != sol.Chosen[v] {
			t.Fatalf("set-cover projection disagrees with BYE at vertex %d", v)
		}
	}
	if math.Abs(verify.CoverWeight(g, byeCover)-sol.Weight) > 1e-9 {
		t.Fatal("weights disagree")
	}
}

func TestFromGraphWithinTwiceOpt(t *testing.T) {
	f := func(seed uint64) bool {
		n := 6 + int(seed%10)
		g := gen.ApplyWeights(gen.Gnp(seed, n, 0.3), seed+1, gen.UniformRange{Lo: 0.5, Hi: 5})
		in := FromGraph(g)
		if g.NumEdges() == 0 {
			return true
		}
		sol, err := Solve(in)
		if err != nil {
			t.Log(err)
			return false
		}
		if err := Verify(in, sol); err != nil {
			t.Log(err)
			return false
		}
		_, opt, err := exact.Solve(context.Background(), g)
		if err != nil {
			t.Log(err)
			return false
		}
		return sol.Weight <= 2*opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesBrokenSolutions(t *testing.T) {
	in := &Instance{Weights: []float64{1, 1}, Elements: [][]int{{0, 1}}}
	sol, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	// Uncover.
	broken := *sol
	broken.Chosen = []bool{false, false}
	if err := Verify(in, &broken); err == nil {
		t.Fatal("uncovered solution passed")
	}
	// Infeasible dual.
	broken2 := *sol
	broken2.Duals = []float64{5}
	if err := Verify(in, &broken2); err == nil {
		t.Fatal("infeasible dual passed")
	}
	// Negative dual.
	broken3 := *sol
	broken3.Duals = []float64{-1}
	if err := Verify(in, &broken3); err == nil {
		t.Fatal("negative dual passed")
	}
}

func TestSolveEmptyInstance(t *testing.T) {
	in := &Instance{}
	sol, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Weight != 0 || sol.Bound != 0 {
		t.Fatal("empty instance nonzero")
	}
}

func TestRandomHypergraphs(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 30; trial++ {
		nSets := 3 + src.Intn(20)
		nElems := 1 + src.Intn(40)
		in := &Instance{Weights: make([]float64, nSets), Elements: make([][]int, nElems)}
		for s := range in.Weights {
			in.Weights[s] = 0.5 + 4*src.Float64()
		}
		for j := range in.Elements {
			k := 1 + src.Intn(4)
			perm := src.Perm(nSets)
			in.Elements[j] = append([]int(nil), perm[:k]...)
		}
		sol, err := Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(in, sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
