package mwvc_test

// Differential property suite for the pdfast fast tier. Every registered
// algorithm runs on the same instance grid (5 families × 3 seeds) and must
// return a valid cover; pdfast additionally must return a feasible dual
// whose doubled value bounds the primal bitwise, return the same bits at
// every worker count and several GOMAXPROCS values, and stay within 2× the
// exact optimum wherever the exact solver can certify one. Through the
// facade, every solve of the grid must carry a real certificate. The suite
// is the cross-algorithm oracle: a subtly wrong approximation solver can
// return valid-looking covers for a long time before anyone notices, so the
// cheap algorithms are checked against each other and against exact ground
// truth on every run.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	mwvc "repro"
	"repro/internal/cli"
	"repro/internal/graph"
	"repro/internal/reduce"
	"repro/internal/solver"
	"repro/internal/verify"
)

// diffFamilies spans the structural extremes the generators offer: sparse
// uniform-weight Erdős–Rényi, heavy-tailed preferential attachment, bipartite
// (where LP duality is tight), regular unit-weight (everything ties), and
// rewired ring lattices with degree-correlated weights.
var diffFamilies = []struct {
	name    string
	gen     string
	n       int
	d       float64
	weights string
}{
	{"gnp-uniform", "gnp", 800, 8, "uniform"},
	{"powerlaw-exp", "powerlaw", 1000, 6, "exp"},
	{"bipartite-loguniform", "bipartite", 600, 10, "loguniform"},
	{"regular-unit", "regular", 500, 4, "unit"},
	{"smallworld-degree", "smallworld", 700, 8, "degree"},
}

var diffSeeds = []uint64{1, 2, 3}

// TestPDFastDifferential is the cross-algorithm sweep: every registered
// solver must produce a valid cover (and a feasible dual when it claims
// one) on every instance of the grid, and pdfast's certificate invariants
// hold bitwise.
func TestPDFastDifferential(t *testing.T) {
	ctx := context.Background()
	for _, fam := range diffFamilies {
		for _, seed := range diffSeeds {
			t.Run(fam.name+"/"+string(rune('0'+seed)), func(t *testing.T) {
				g, err := cli.BuildGraph(fam.gen, fam.n, fam.d, fam.weights, seed)
				if err != nil {
					t.Fatal(err)
				}
				cfg := solver.Config{Epsilon: 0.1, Seed: seed}
				for _, reg := range solver.Registrations() {
					out, err := reg.Solver.Solve(ctx, g, cfg)
					if errors.Is(err, solver.ErrUnsupported) {
						continue // instance outside the algorithm's domain
					}
					if err != nil {
						t.Fatalf("%s: %v", reg.Name, err)
					}
					if ok, witness := verify.IsCover(g, out.Cover); !ok {
						t.Fatalf("%s: edge %d uncovered", reg.Name, witness)
					}
					if out.Duals != nil {
						if err := verify.DualFeasible(g, out.Duals); err != nil {
							t.Fatalf("%s: %v", reg.Name, err)
						}
					}
				}

				checkPDFastCertificate(t, ctx, g, cfg)
			})
		}
	}
}

// TestEverySolveCertified holds every registered algorithm that accepts a
// grid instance to a real certificate through mwvc.Solve: Bound > 0 and a
// finite CertifiedRatio ≥ 1. Greedy raises no duals, so its Bound must be
// the Bar-Yehuda–Even dual value on the instance it solved (the kernel)
// plus the forced weight, bit for bit.
func TestEverySolveCertified(t *testing.T) {
	ctx := context.Background()
	for _, fam := range diffFamilies {
		for _, seed := range diffSeeds {
			name := fam.name + "/" + string(rune('0'+seed))
			g, err := cli.BuildGraph(fam.gen, fam.n, fam.d, fam.weights, seed)
			if err != nil {
				t.Fatal(err)
			}
			red, err := reduce.Run(ctx, g)
			if err != nil {
				t.Fatal(err)
			}
			work := g
			if red.Trace != nil {
				work = red.Kernel
			}
			for _, algo := range mwvc.Algorithms() {
				sol, err := mwvc.Solve(ctx, g, mwvc.WithAlgorithm(algo), mwvc.WithSeed(seed))
				if errors.Is(err, solver.ErrUnsupported) {
					continue // instance outside the algorithm's domain
				}
				if err != nil {
					t.Fatalf("%s/%s: %v", name, algo, err)
				}
				if !(sol.Bound > 0) || !(sol.CertifiedRatio >= 1) || math.IsInf(sol.CertifiedRatio, 0) {
					t.Fatalf("%s/%s: bound %v ratio %v, want a positive bound and a finite ratio ≥ 1",
						name, algo, sol.Bound, sol.CertifiedRatio)
				}
				if algo != mwvc.AlgoGreedy || sol.Exact {
					continue
				}
				_, x := verify.BarYehudaEven(work)
				want := verify.DualValue(x) + red.Stats.ForcedWeight
				if math.Float64bits(sol.Bound) != math.Float64bits(want) {
					t.Fatalf("%s/greedy: bound %v, want the Bar-Yehuda–Even value %v", name, sol.Bound, want)
				}
			}
		}
	}
}

// checkPDFastCertificate pins pdfast's own contract on one instance: valid
// cover, per-vertex dual feasibility, and primal ≤ 2·dual compared through
// math.Float64bits — non-negative IEEE doubles order identically by value
// and by bit pattern, so this is the exact (no-tolerance) form of the
// 2-approximation inequality on the sums as actually computed.
func checkPDFastCertificate(t *testing.T, ctx context.Context, g *graph.Graph, cfg solver.Config) {
	t.Helper()
	reg, ok := solver.Lookup("pdfast")
	if !ok {
		t.Fatal("pdfast not registered")
	}
	out, err := reg.Solver.Solve(ctx, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ok, witness := verify.IsCover(g, out.Cover); !ok {
		t.Fatalf("pdfast: edge %d uncovered", witness)
	}
	if err := verify.DualFeasible(g, out.Duals); err != nil {
		t.Fatalf("pdfast dual infeasible: %v", err)
	}
	primal := verify.CoverWeight(g, out.Cover)
	dual := verify.DualValue(out.Duals)
	if math.Float64bits(primal) > math.Float64bits(2*dual) {
		t.Fatalf("pdfast primal %v (bits %#x) exceeds 2×dual %v (bits %#x)",
			primal, math.Float64bits(primal), 2*dual, math.Float64bits(2*dual))
	}
}

// TestPDFastParallelMatchesSerial pins the KVY determinism contract: pdfast
// at Parallelism 0 (GOMAXPROCS sweep workers) returns the round count, cover
// bitmap and dual vector of Parallelism 1 bit for bit, at GOMAXPROCS ∈
// {1, 2, 8}. Every grid instance falls below pdfast's 4,096-live-edge round
// cutoff, so the test adds G(5000, 24) with uniform weights (the instance of
// internal/pdfast's TestParallelBitIdentical): its 5,000 live vertices also
// clear the 2,048-vertex cutoff of the chunked sweep, and it must run at
// least one synchronized round. Weight and bound are compared through
// Float64bits — "equal" here means the same IEEE double, not merely close.
func TestPDFastParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	reg, ok := solver.Lookup("pdfast")
	if !ok {
		t.Fatal("pdfast not registered")
	}
	type instance struct {
		name   string
		g      *graph.Graph
		seed   uint64
		sweeps bool // must run a synchronized round
	}
	var instances []instance
	for _, fam := range diffFamilies {
		for _, seed := range diffSeeds {
			g, err := cli.BuildGraph(fam.gen, fam.n, fam.d, fam.weights, seed)
			if err != nil {
				t.Fatal(err)
			}
			instances = append(instances, instance{fmt.Sprintf("%s/%d", fam.name, seed), g, seed, false})
		}
	}
	g, err := cli.BuildGraph("gnp", 5000, 24, "uniform", 7)
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, instance{"gnp-5000-24/7", g, 7, true})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, in := range instances {
		cfg := solver.Config{Epsilon: 0.1, Seed: in.seed, Parallelism: 1}
		want, err := reg.Solver.Solve(ctx, in.g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if in.sweeps && want.Rounds < 1 {
			t.Fatalf("%s: %d synchronized rounds, so the chunked sweep never ran", in.name, want.Rounds)
		}
		cfg.Parallelism = 0 // GOMAXPROCS sweep workers
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := reg.Solver.Solve(ctx, in.g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rounds != want.Rounds {
				t.Fatalf("%s GOMAXPROCS=%d: rounds %d != %d", in.name, procs, got.Rounds, want.Rounds)
			}
			for v := range want.Cover {
				if got.Cover[v] != want.Cover[v] {
					t.Fatalf("%s GOMAXPROCS=%d: cover diverges at vertex %d", in.name, procs, v)
				}
			}
			for e := range want.Duals {
				if math.Float64bits(got.Duals[e]) != math.Float64bits(want.Duals[e]) {
					t.Fatalf("%s GOMAXPROCS=%d: dual diverges at edge %d: %v != %v",
						in.name, procs, e, got.Duals[e], want.Duals[e])
				}
			}
			gw, ww := verify.CoverWeight(in.g, got.Cover), verify.CoverWeight(in.g, want.Cover)
			gb, wb := verify.DualValue(got.Duals), verify.DualValue(want.Duals)
			if math.Float64bits(gw) != math.Float64bits(ww) || math.Float64bits(gb) != math.Float64bits(wb) {
				t.Fatalf("%s GOMAXPROCS=%d: weight/bound bits diverge", in.name, procs)
			}
		}
	}
}

// TestPDFastAgainstExactOptimum shrinks each family into exact's domain
// (n ≤ 64 raw, so the kernel trivially reaches the exact solver) and checks
// pdfast's weight against 2× the true optimum — the end-to-end form of the
// guarantee, with no dual in between.
func TestPDFastAgainstExactOptimum(t *testing.T) {
	ctx := context.Background()
	for _, fam := range diffFamilies {
		for _, seed := range diffSeeds {
			g, err := cli.BuildGraph(fam.gen, 48, 4, fam.weights, seed)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := mwvc.Solve(ctx, g, mwvc.WithAlgorithm(mwvc.AlgoExact), mwvc.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !opt.Exact {
				t.Fatalf("%s/%d: exact solve not marked exact", fam.name, seed)
			}
			sol, err := mwvc.Solve(ctx, g, mwvc.WithAlgorithm(mwvc.AlgoPDFast), mwvc.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			// 2×OPT is certified through the dual (dual ≤ OPT by weak
			// duality); the verify tolerance absorbs the two float sums.
			if sol.Weight > 2*opt.Weight*(1+verify.Tolerance)+verify.Tolerance {
				t.Fatalf("%s/%d: pdfast weight %v exceeds 2×optimum %v", fam.name, seed, sol.Weight, 2*opt.Weight)
			}
		}
	}
}
