package solver_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	_ "repro/internal/core" // registers mpc
	"repro/internal/gen"
	"repro/internal/graph"
	_ "repro/internal/pdfast" // registers pdfast
	"repro/internal/reduce"
	"repro/internal/solver"
	"repro/internal/verify"
)

// fixedSolver returns a copy of out.
type fixedSolver struct{ out *solver.Outcome }

func (f fixedSolver) Solve(context.Context, *graph.Graph, solver.Config) (*solver.Outcome, error) {
	out := *f.out
	return &out, nil
}

// TestKernelCertificateMatchesLifted pins that the pipeline's certificate,
// checked on the kernel, is the one verify.NewLiftedCertificate makes from
// the duals lifted onto the original graph: the same Weight and Bound bits
// for real pdfast and mpc duals on reduced instances, and the same verdict
// on duals made infeasible.
func TestKernelCertificateMatchesLifted(t *testing.T) {
	ctx := context.Background()
	uniform := gen.UniformRange{Lo: 1, Hi: 100}
	instances := map[string]*graph.Graph{
		"gnp-sparse":   gen.ApplyWeights(gen.GnpAvgDegree(5, 400, 3), 5, uniform),
		"gnp-medium":   gen.ApplyWeights(gen.GnpAvgDegree(6, 300, 6), 6, uniform),
		"pref-attach":  gen.ApplyWeights(gen.PreferentialAttachment(7, 400, 2), 7, uniform),
		"rmat-skewed":  gen.ApplyWeights(gen.RMAT(8, 9, 4, 0.57, 0.19, 0.19), 8, uniform),
		"grid-uniform": gen.ApplyWeights(gen.Grid(12, 12), 9, uniform),
	}
	names := make([]string, 0, len(instances))
	for name := range instances {
		names = append(names, name)
	}
	slices.Sort(names)
	checked := 0
	for _, name := range names {
		g := instances[name]
		red, err := reduce.Run(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if red.Trace == nil || red.Kernel.NumEdges() == 0 {
			continue // nothing to lift, or nothing left to certify
		}
		tr, kernel := red.Trace, red.Kernel
		for _, algo := range []string{"pdfast", "mpc"} {
			reg, ok := solver.Lookup(algo)
			if !ok {
				t.Fatalf("%s not registered", algo)
			}
			out, err := reg.Solver.Solve(ctx, kernel, solver.Config{Epsilon: 0.1, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if out.Duals == nil {
				t.Fatalf("%s/%s: no duals", name, algo)
			}
			for _, dual := range perturbations(kernel, out.Duals) {
				label := fmt.Sprintf("%s/%s/%s", name, algo, dual.name)
				cover, forced := tr.Lift(out.Cover)
				want, wantErr := verify.NewLiftedCertificate(g, cover, tr.LiftDuals(dual.x), forced)
				got, gotErr := solver.Pipeline{
					Solver: fixedSolver{&solver.Outcome{Cover: out.Cover, Duals: dual.x}},
					Reduce: true,
				}.Run(ctx, g)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: lifted certificate err %v, pipeline err %v", label, wantErr, gotErr)
				}
				if dual.name != "as-solved" && gotErr == nil {
					t.Fatalf("%s: infeasible duals accepted", label)
				}
				if wantErr != nil {
					continue
				}
				if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) ||
					math.Float64bits(got.Bound) != math.Float64bits(want.Bound) {
					t.Fatalf("%s: pipeline weight %v bound %v, lifted certificate %v %v",
						label, got.Weight, got.Bound, want.Weight, want.Bound)
				}
				if math.Float64bits(got.CertifiedRatio) != math.Float64bits(want.Ratio()) {
					t.Fatalf("%s: pipeline ratio %v, lifted certificate %v", label, got.CertifiedRatio, want.Ratio())
				}
				checked++
			}
		}
	}
	if checked < 6 {
		t.Fatalf("only %d accepted certificates compared; the instances stopped reducing", checked)
	}
}

// TestZeroBoundRejected pins that a cover of positive weight certified by
// all-zero duals fails as an internal error: a Bound of 0 certifies
// nothing, so the pipeline refuses it as it refuses an infeasible dual.
func TestZeroBoundRejected(t *testing.T) {
	g := gen.ApplyWeights(gen.Grid(4, 4), 1, gen.UniformRange{Lo: 1, Hi: 100})
	cover := make([]bool, g.NumVertices())
	for v := range cover {
		cover[v] = true
	}
	stub := fixedSolver{&solver.Outcome{Cover: cover, Duals: make([]float64, g.NumEdges())}}
	_, err := solver.Pipeline{Solver: stub}.Run(context.Background(), g)
	if err == nil || !strings.HasPrefix(err.Error(), "solver: internal error:") {
		t.Fatalf("zero duals under a positive-weight cover: err %v, want a solver internal error", err)
	}
}

type dualCase struct {
	name string
	x    []float64
}

// perturbations returns x as solved, and copies with one dual raised past
// the slack of its endpoints, one negative, and one NaN.
func perturbations(g *graph.Graph, x []float64) []dualCase {
	sum := make([]float64, g.NumVertices())
	ep := g.EdgeEndpoints()
	for e, xe := range x {
		sum[ep[2*e]] += xe
		sum[ep[2*e+1]] += xe
	}
	e := len(x) / 2
	u, v := ep[2*e], ep[2*e+1]
	slack := min(g.Weight(u)-sum[u], g.Weight(v)-sum[v])
	cases := []dualCase{{"as-solved", x}}
	for _, p := range []struct {
		name string
		xe   float64
	}{
		{"past-slack", x[e] + slack + 1e-6*max(g.Weight(u), g.Weight(v))},
		{"negative", -1e-3},
		{"nan", math.NaN()},
	} {
		y := slices.Clone(x)
		y[e] = p.xe
		cases = append(cases, dualCase{p.name, y})
	}
	return cases
}
