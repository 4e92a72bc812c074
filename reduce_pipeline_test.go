package mwvc

// Property tests for the Reduce→Solve→Lift pipeline across every registered
// algorithm: lifted covers are valid on the original graph, weights are
// exact to the bit, certified ratios survive lifting, and disabling
// reduction reproduces the direct solve path bit for bit.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/cli"
	"repro/internal/solver"
	"repro/internal/verify"
)

// reducibleInstance mixes structure every rule can bite on (pendant fringe,
// skewed weights) with an irreducible core; see cli.BuildGraph generators.
func reducibleInstances(t *testing.T) map[string]*Graph {
	t.Helper()
	out := map[string]*Graph{}
	for _, spec := range []struct {
		name, gen, weights string
		n                  int
		d                  float64
	}{
		{"powerlaw-tree", "powerlaw", "unit", 300, 2},
		{"powerlaw-uniform", "powerlaw", "uniform", 300, 4},
		{"gnp-sparse", "gnp", "uniform", 200, 3},
		{"star", "star", "unit", 120, 0},
		{"grid", "grid", "uniform", 100, 4},
	} {
		g, err := cli.BuildGraph(spec.gen, spec.n, spec.d, spec.weights, 11)
		if err != nil {
			t.Fatal(err)
		}
		out[spec.name] = g
	}
	return out
}

func TestReducedPipelineProperties(t *testing.T) {
	for name, g := range reducibleInstances(t) {
		for _, algo := range Algorithms() {
			for seed := uint64(1); seed <= 3; seed++ {
				sol, err := Solve(context.Background(), g,
					WithAlgorithm(algo), WithSeed(seed), WithEpsilon(0.1))
				if errors.Is(err, solver.ErrUnsupported) {
					continue // e.g. exact on big kernels
				}
				if err != nil {
					t.Fatalf("%s/%s/seed%d: %v", name, algo, seed, err)
				}
				// The lifted cover must cover the *original* graph.
				if ok, e := verify.IsCover(g, sol.Cover); !ok {
					t.Fatalf("%s/%s/seed%d: lifted cover misses edge %d", name, algo, seed, e)
				}
				// Weight is the recomputed cover weight, exactly.
				if math.Float64bits(sol.Weight) != math.Float64bits(verify.CoverWeight(g, sol.Cover)) {
					t.Fatalf("%s/%s/seed%d: Weight %v != recomputed %v",
						name, algo, seed, sol.Weight, verify.CoverWeight(g, sol.Cover))
				}
				// Certified results stay certified after lifting.
				if sol.CertifiedRatio < 1-1e-12 {
					t.Fatalf("%s/%s/seed%d: certified ratio %v < 1", name, algo, seed, sol.CertifiedRatio)
				}
				if sol.Bound > sol.Weight+1e-9 {
					t.Fatalf("%s/%s/seed%d: bound %v above weight %v", name, algo, seed, sol.Bound, sol.Weight)
				}
				if sol.Reduction == nil {
					t.Fatalf("%s/%s/seed%d: reduction stats missing", name, algo, seed)
				}
			}
		}
	}
}

// TestWithoutReductionBitIdentical pins the refactor's no-op guarantee:
// WithoutReduction must reproduce the direct solve path — registry solve on
// the raw graph followed by verification — bit for bit, for every algorithm.
func TestWithoutReductionBitIdentical(t *testing.T) {
	for name, g := range reducibleInstances(t) {
		for _, algo := range Algorithms() {
			reg, ok := solver.Lookup(string(algo))
			if !ok {
				t.Fatalf("%s not registered", algo)
			}
			cfg := solver.Config{Epsilon: 0.1, Seed: 2}
			out, err := reg.Solver.Solve(context.Background(), g, cfg)
			if errors.Is(err, solver.ErrUnsupported) {
				continue
			}
			if err != nil {
				t.Fatalf("%s/%s direct: %v", name, algo, err)
			}
			want := directFinish(t, g, out)

			got, err := Solve(context.Background(), g,
				WithAlgorithm(algo), WithSeed(2), WithEpsilon(0.1), WithoutReduction())
			if err != nil {
				t.Fatalf("%s/%s pipeline: %v", name, algo, err)
			}
			if got.Reduction != nil {
				t.Fatalf("%s/%s: WithoutReduction attached reduction stats", name, algo)
			}
			if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) ||
				math.Float64bits(got.Bound) != math.Float64bits(want.Bound) ||
				math.Float64bits(got.CertifiedRatio) != math.Float64bits(want.CertifiedRatio) {
				t.Fatalf("%s/%s: floats differ: got (%x,%x,%x) want (%x,%x,%x)", name, algo,
					math.Float64bits(got.Weight), math.Float64bits(got.Bound), math.Float64bits(got.CertifiedRatio),
					math.Float64bits(want.Weight), math.Float64bits(want.Bound), math.Float64bits(want.CertifiedRatio))
			}
			if got.Rounds != want.Rounds || got.Phases != want.Phases || got.Exact != want.Exact {
				t.Fatalf("%s/%s: accounting differs: got %d/%d/%v want %d/%d/%v", name, algo,
					got.Rounds, got.Phases, got.Exact, want.Rounds, want.Phases, want.Exact)
			}
			for v := range want.Cover {
				if got.Cover[v] != want.Cover[v] {
					t.Fatalf("%s/%s: cover bit %d differs", name, algo, v)
				}
			}
		}
	}
}

// directFinish replicates the facade's epilogue on an unreduced solve:
// verify the raw cover, check the certificate — the solver's duals, or the
// Bar-Yehuda–Even pass's on g when it returns none and is not exact — and
// apply the CertifiedRatio rule.
func directFinish(t *testing.T, g *Graph, out *solver.Outcome) *Solution {
	t.Helper()
	if ok, _ := verify.IsCover(g, out.Cover); !ok {
		t.Fatal("direct outcome is not a cover")
	}
	sol := &Solution{
		Cover:  out.Cover,
		Weight: verify.CoverWeight(g, out.Cover),
		Rounds: out.Rounds,
		Phases: out.Phases,
		Exact:  out.Exact,
	}
	duals := out.Duals
	if duals == nil && !out.Exact {
		_, duals = verify.BarYehudaEven(g)
	}
	if duals == nil {
		sol.Bound = sol.Weight
		sol.CertifiedRatio = 1
		return sol
	}
	cert, err := verify.NewCertificate(g, out.Cover, duals)
	if err != nil {
		t.Fatal(err)
	}
	sol.Bound = cert.Bound
	sol.CertifiedRatio = cert.Ratio()
	return sol
}

// TestExactViaKernelAcceptance pins the acceptance criterion: an exact
// solve succeeds on an original graph with far more than 64 vertices whose
// kernel fits, and matches brute force on the small core.
func TestExactViaKernelAcceptance(t *testing.T) {
	// 200 vertices: an irreducible 8-cycle core (cheap ends pattern refuses
	// every rule) plus 192 heavy pendants hanging off a separate cheap hub
	// chain that collapses entirely.
	b := NewBuilder(200)
	coreW := []float64{1, 10, 1, 10, 1, 10, 1, 10}
	for i, w := range coreW {
		b.SetWeight(Vertex(i), w)
		b.AddEdge(Vertex(i), Vertex((i+1)%8))
	}
	for l := 8; l < 200; l++ {
		b.SetWeight(Vertex(l), 50)
		b.AddEdge(Vertex(l%8), Vertex(l))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(context.Background(), g, WithAlgorithm(AlgoExact), WithSeed(1))
	if err != nil {
		t.Fatalf("exact via kernel on n=200: %v", err)
	}
	if !sol.Exact {
		t.Fatal("solution not marked exact")
	}
	if ok, _ := verify.IsCover(g, sol.Cover); !ok {
		t.Fatal("exact cover invalid on the original")
	}
	if sol.Reduction == nil || sol.Reduction.OriginalVertices != 200 {
		t.Fatalf("reduction stats %+v", sol.Reduction)
	}
	// Every pendant forces its core hub; the whole cycle is forced, the
	// kernel is empty, and OPT is the cycle weight.
	want := 0.0
	for _, w := range coreW {
		want += w
	}
	if math.Abs(sol.Weight-want) > 1e-9 {
		t.Fatalf("exact weight %v, want %v", sol.Weight, want)
	}

	// On this pendant-heavy instance, reducing first shrinks the graph and
	// never yields a heavier cover than solving the whole graph.
	for _, algo := range []Algorithm{AlgoMPC, AlgoPDFast} {
		red, err := Solve(context.Background(), g, WithAlgorithm(algo), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		solo, err := Solve(context.Background(), g, WithAlgorithm(algo), WithSeed(1), WithoutReduction())
		if err != nil {
			t.Fatal(err)
		}
		if r := red.Reduction; r.KernelVertices >= r.OriginalVertices || r.KernelEdges >= r.OriginalEdges {
			t.Fatalf("%s: reduction did not shrink the instance: %+v", algo, r)
		}
		if red.Weight > solo.Weight {
			t.Fatalf("%s: reduced cover weight %v above solve-alone %v", algo, red.Weight, solo.Weight)
		}
	}
}

func TestReductionStatsJSONRoundTrip(t *testing.T) {
	g, err := cli.BuildGraph("powerlaw", 200, 2, "unit", 5)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(context.Background(), g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Reduction == nil || sol.Reduction.KernelVertices >= 200 {
		t.Fatalf("powerlaw tree did not reduce: %+v", sol.Reduction)
	}
	data, err := json.Marshal(sol)
	if err != nil {
		t.Fatal(err)
	}
	var back Solution
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Reduction == nil {
		t.Fatal("reduction stats lost in JSON round trip")
	}
	if *back.Reduction != *sol.Reduction {
		t.Fatalf("reduction stats mutated: %+v vs %+v", back.Reduction, sol.Reduction)
	}
	// WithoutReduction keeps the wire clean: no reduction key at all.
	noRed, err := Solve(context.Background(), g, WithSeed(1), WithoutReduction())
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(noRed)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if _, present := m["reduction"]; present {
		t.Fatal("reduction key present for a WithoutReduction solve")
	}
}
