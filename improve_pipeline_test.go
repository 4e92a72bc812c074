package mwvc

// Property tests for the Reduce→Solve→Improve→Lift pipeline across every
// registered algorithm: improved kernel covers lift to valid original
// covers with exact Float64bits weight accounting, the dual bound is
// bitwise untouched by improvement, and the default-off path reproduces the
// improvement-free pipeline bit for bit.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/reduce"
	"repro/internal/solver"
	"repro/internal/verify"
)

// TestImprovedPipelineProperties is the lift-interplay property test: for
// every instance × algorithm × seed, the improved-and-lifted cover is valid
// on the original graph, Solution.Weight is bitwise the recomputed cover
// weight, the improvement stats are bitwise kernel cover weights (checked
// by projecting the lifted cover back through reduce.Trace.Restrict), the
// forced weight + improved kernel weight accounts for the total, and the
// certified bound is bitwise identical to the improvement-free solve.
func TestImprovedPipelineProperties(t *testing.T) {
	for name, g := range reducibleInstances(t) {
		for _, algo := range Algorithms() {
			for seed := uint64(1); seed <= 3; seed++ {
				plain, err := Solve(context.Background(), g,
					WithAlgorithm(algo), WithSeed(seed), WithEpsilon(0.1))
				if errors.Is(err, solver.ErrUnsupported) {
					continue
				}
				if err != nil {
					t.Fatalf("%s/%s/seed%d plain: %v", name, algo, seed, err)
				}
				// A generous budget on these small instances converges, so the
				// improved run is deterministic too.
				sol, err := Solve(context.Background(), g,
					WithAlgorithm(algo), WithSeed(seed), WithEpsilon(0.1),
					WithImprovement(time.Minute))
				if err != nil {
					t.Fatalf("%s/%s/seed%d improved: %v", name, algo, seed, err)
				}
				if ok, e := verify.IsCover(g, sol.Cover); !ok {
					t.Fatalf("%s/%s/seed%d: improved lifted cover misses edge %d", name, algo, seed, e)
				}
				if math.Float64bits(sol.Weight) != math.Float64bits(verify.CoverWeight(g, sol.Cover)) {
					t.Fatalf("%s/%s/seed%d: Weight %v != recomputed %v",
						name, algo, seed, sol.Weight, verify.CoverWeight(g, sol.Cover))
				}
				if sol.Weight > plain.Weight {
					t.Fatalf("%s/%s/seed%d: improvement made the cover heavier: %v > %v",
						name, algo, seed, sol.Weight, plain.Weight)
				}
				// The dual certificate is untouched: bitwise-identical bound,
				// so the certified ratio can only tighten.
				if math.Float64bits(sol.Bound) != math.Float64bits(plain.Bound) {
					t.Fatalf("%s/%s/seed%d: improvement moved the bound: %x vs %x",
						name, algo, seed, math.Float64bits(sol.Bound), math.Float64bits(plain.Bound))
				}
				if sol.CertifiedRatio > plain.CertifiedRatio {
					t.Fatalf("%s/%s/seed%d: certified ratio loosened: %v > %v",
						name, algo, seed, sol.CertifiedRatio, plain.CertifiedRatio)
				}

				if sol.Exact {
					if sol.Improvement != nil {
						t.Fatalf("%s/%s/seed%d: exact solve carries improvement stats", name, algo, seed)
					}
					continue
				}
				if sol.Improvement == nil {
					t.Fatalf("%s/%s/seed%d: improvement stats missing", name, algo, seed)
				}

				// Exact Float64bits weight accounting on the kernel: rebuild
				// the (deterministic) reduction, project the lifted cover back
				// to kernel ids, and the stats' WeightAfter must be bitwise
				// the kernel cover weight.
				red, err := reduce.Run(context.Background(), g)
				if err != nil {
					t.Fatal(err)
				}
				kernel, forced := red.Kernel, 0.0
				kernelCover := sol.Cover
				if red.Trace != nil {
					kernelCover = red.Trace.Restrict(sol.Cover)
					forced = red.Trace.ForcedWeight()
				}
				if math.Float64bits(sol.Improvement.WeightAfter) !=
					math.Float64bits(verify.CoverWeight(kernel, kernelCover)) {
					t.Fatalf("%s/%s/seed%d: WeightAfter %v != kernel cover weight %v",
						name, algo, seed, sol.Improvement.WeightAfter, verify.CoverWeight(kernel, kernelCover))
				}
				// Forced weight + improved kernel weight accounts for the
				// lifted total (associativity slack only).
				if diff := math.Abs(forced + sol.Improvement.WeightAfter - sol.Weight); diff > 1e-9 {
					t.Fatalf("%s/%s/seed%d: forced %v + kernel %v != lifted %v (diff %v)",
						name, algo, seed, forced, sol.Improvement.WeightAfter, sol.Weight, diff)
				}
			}
		}
	}
}

// TestWithoutImprovementBitIdentical pins the default-off guarantee: a plain
// Solve and Solve(WithImprovement(b)) with b ≤ 0 are one code path —
// bit-for-bit identical floats, accounting and cover, with no improvement
// stats attached.
func TestWithoutImprovementBitIdentical(t *testing.T) {
	for name, g := range reducibleInstances(t) {
		for _, algo := range Algorithms() {
			want, err := Solve(context.Background(), g,
				WithAlgorithm(algo), WithSeed(2), WithEpsilon(0.1))
			if errors.Is(err, solver.ErrUnsupported) {
				continue
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", name, algo, err)
			}
			for variant, opts := range map[string][]Option{
				"ZeroBudget":     {WithAlgorithm(algo), WithSeed(2), WithEpsilon(0.1), WithImprovement(0)},
				"NegativeBudget": {WithAlgorithm(algo), WithSeed(2), WithEpsilon(0.1), WithImprovement(-time.Second)},
			} {
				got, err := Solve(context.Background(), g, opts...)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, algo, variant, err)
				}
				if got.Improvement != nil {
					t.Fatalf("%s/%s/%s: improvement stats attached with the stage off", name, algo, variant)
				}
				if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) ||
					math.Float64bits(got.Bound) != math.Float64bits(want.Bound) ||
					math.Float64bits(got.CertifiedRatio) != math.Float64bits(want.CertifiedRatio) {
					t.Fatalf("%s/%s/%s: floats differ from plain solve", name, algo, variant)
				}
				if got.Rounds != want.Rounds || got.Phases != want.Phases || got.Exact != want.Exact {
					t.Fatalf("%s/%s/%s: accounting differs from plain solve", name, algo, variant)
				}
				for v := range want.Cover {
					if got.Cover[v] != want.Cover[v] {
						t.Fatalf("%s/%s/%s: cover bit %d differs", name, algo, variant, v)
					}
				}
			}
		}
	}
}

// TestImprovementStatsJSONRoundTrip: the improvement key appears exactly
// when the stage ran, and survives the Solution JSON round trip.
func TestImprovementStatsJSONRoundTrip(t *testing.T) {
	g := RandomGraph(7, 300, 8)
	sol, err := Solve(context.Background(), g,
		WithAlgorithm(AlgoGreedy), WithSeed(1), WithImprovement(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Improvement == nil {
		t.Fatal("no improvement stats on a budgeted greedy solve")
	}
	data, err := json.Marshal(sol)
	if err != nil {
		t.Fatal(err)
	}
	var back Solution
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Improvement == nil || *back.Improvement != *sol.Improvement {
		t.Fatalf("improvement stats mutated in round trip: %+v vs %+v", back.Improvement, sol.Improvement)
	}
	// Improvement-free solves keep the wire clean: no improvement key.
	plain, err := Solve(context.Background(), g, WithAlgorithm(AlgoGreedy), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"improvement"`)) {
		t.Fatal("improvement key present for an improvement-free solve")
	}
}
