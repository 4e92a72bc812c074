package mwvc

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestSolveAllAlgorithmsSmall(t *testing.T) {
	g := RandomGraph(3, 60, 6)
	for _, algo := range Algorithms() {
		sol, err := Solve(context.Background(), g, WithAlgorithm(algo), WithEpsilon(0.1), WithSeed(5))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if sol.Weight <= 0 && g.NumEdges() > 0 {
			t.Fatalf("%s: weight %v on a graph with edges", algo, sol.Weight)
		}
		switch algo {
		case AlgoExact:
			if !sol.Exact || sol.CertifiedRatio != 1 {
				t.Fatalf("exact solution not marked exact")
			}
		default:
			if sol.Bound <= 0 {
				t.Fatalf("%s: no certified bound", algo)
			}
			if sol.CertifiedRatio > 3.0001 {
				t.Fatalf("%s: certified ratio %v", algo, sol.CertifiedRatio)
			}
		}
	}
}

func TestAlgorithmsDeriveFromRegistry(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 9 {
		t.Fatalf("expected the 9 built-in algorithms, got %d: %v", len(algos), algos)
	}
	want := []Algorithm{
		AlgoMPC, AlgoMPCCompress, AlgoCentralized, AlgoLocalUniform, AlgoPDFast,
		AlgoBYE, AlgoGreedy, AlgoCongestedClique, AlgoExact,
	}
	for i, a := range want {
		if algos[i] != a {
			t.Fatalf("display order %v, want %v", algos, want)
		}
	}
	for _, a := range algos {
		if AlgorithmSummary(a) == "" {
			t.Fatalf("%s has no registered summary", a)
		}
		switch AlgorithmTier(a) {
		case "fast", "accurate", "exact":
		default:
			t.Fatalf("%s has tier %q", a, AlgorithmTier(a))
		}
	}
	if AlgorithmTier(AlgoPDFast) != "fast" || AlgorithmTier(AlgoExact) != "exact" {
		t.Fatal("tier lookup mismatch")
	}
	if AlgorithmTier("nonsense") != "" {
		t.Fatal("tier for unknown algorithm")
	}
	if AlgorithmSummary("nonsense") != "" {
		t.Fatal("summary for unknown algorithm")
	}
	if AlgorithmHelp() == "" {
		t.Fatal("empty registry help text")
	}
}

func TestSolveDefaults(t *testing.T) {
	g := RandomGraph(1, 200, 10)
	sol, err := Solve(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Rounds <= 0 {
		t.Fatal("MPC default should report rounds")
	}
}

func TestSolveNilContext(t *testing.T) {
	g := RandomGraph(1, 100, 6)
	if _, err := Solve(nil, g); err != nil { //nolint:staticcheck // nil ctx tolerated by contract
		t.Fatalf("nil context rejected: %v", err)
	}
}

func TestSolveAgainstExact(t *testing.T) {
	g := RandomGraph(9, 40, 5)
	opt, err := Solve(context.Background(), g, WithAlgorithm(AlgoExact))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoMPC, AlgoCentralized, AlgoBYE, AlgoCongestedClique} {
		sol, err := Solve(context.Background(), g, WithAlgorithm(algo), WithEpsilon(0.1), WithSeed(2))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if sol.Weight < opt.Weight-1e-9 {
			t.Fatalf("%s: weight %v below optimum %v (invalid cover?)", algo, sol.Weight, opt.Weight)
		}
		if sol.Weight > 3*opt.Weight+1e-9 {
			t.Fatalf("%s: weight %v exceeds 3×OPT %v", algo, sol.Weight, opt.Weight)
		}
		if sol.Bound > opt.Weight+1e-9 {
			t.Fatalf("%s: bound %v exceeds OPT %v (weak duality broken)", algo, sol.Bound, opt.Weight)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(context.Background(), nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := RandomGraph(1, 10, 2)
	if _, err := Solve(context.Background(), g, WithAlgorithm("nonsense")); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	big := NewBuilder(100)
	big.AddEdge(0, 1)
	bg, err := big.Build()
	if err != nil {
		t.Fatal(err)
	}
	// On the raw graph exact is out of its 64-vertex domain — and the error
	// must point at the escape hatch: this instance kernelizes to nothing.
	_, err = Solve(context.Background(), bg, WithAlgorithm(AlgoExact), WithoutReduction())
	if err == nil {
		t.Fatal("exact on 100 raw vertices accepted")
	}
	if !strings.Contains(err.Error(), "reduces to a 0-vertex kernel") {
		t.Fatalf("oversize exact error does not report the kernel size: %v", err)
	}
	// With the default reduction the same solve succeeds exactly: the kernel
	// (here empty) fits the solver even though the original does not.
	sol, err := Solve(context.Background(), bg, WithAlgorithm(AlgoExact))
	if err != nil {
		t.Fatalf("exact via kernel: %v", err)
	}
	if !sol.Exact || sol.Weight != 1 {
		t.Fatalf("exact via kernel: exact=%v weight=%v, want true/1", sol.Exact, sol.Weight)
	}
}

func TestSolvePreCancelledContext(t *testing.T) {
	// A pre-cancelled context must return promptly with ctx.Err() for every
	// registered algorithm — the facade checks before dispatch, so no solver
	// touches the graph.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := RandomGraph(2, 500, 8)
	for _, algo := range Algorithms() {
		sol, err := Solve(ctx, g, WithAlgorithm(algo))
		if sol != nil {
			t.Fatalf("%s: returned a solution despite cancelled context", algo)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", algo, err)
		}
	}
}

func TestGraphIORoundTrip(t *testing.T) {
	g := RandomGraph(4, 50, 4)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
}

func TestPaperConstantsOption(t *testing.T) {
	g := RandomGraph(2, 300, 12)
	sol, err := Solve(context.Background(), g, WithPaperConstants(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Phases != 0 {
		t.Fatalf("paper constants at n=300 should run 0 sampled phases, got %d", sol.Phases)
	}
	if sol.Bound <= 0 {
		t.Fatal("no certificate")
	}
}

func TestEdgelessSolution(t *testing.T) {
	g := NewBuilder(5).MustBuild()
	for _, algo := range Algorithms() {
		sol, err := Solve(context.Background(), g, WithAlgorithm(algo))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if sol.Weight != 0 || sol.CertifiedRatio != 1 {
			t.Fatalf("%s: edgeless weight %v ratio %v", algo, sol.Weight, sol.CertifiedRatio)
		}
	}
}
