package mwvc_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	mwvc "repro"
	"repro/internal/cli"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reduce"
)

// TestOverlapBitIdentical solves each instance with WithParallelism(1),
// which keeps the sequential pipeline, and with WithParallelism(2), which
// lets the pipeline start the solve beside reduce when only the domination
// rule could shrink the input. The two must agree on every output bit. Of
// the diff families, regular-unit passes the gate and stays irreducible
// (the overlap is used), smallworld-degree passes and then reduces (it is
// discarded), and the rest fail the gate. The dense case, G(3000, 200),
// uses the overlap on the benchmark's large-d regime. The Kernel variant
// fills one slot at parallelism 2, through the overlap where the gate
// passes, and takes it at parallelism 1 and 2; those solves must agree
// too.
func TestOverlapBitIdentical(t *testing.T) {
	type instance struct {
		name string
		g    *graph.Graph
		seed uint64
	}
	var cases []instance
	for _, f := range diffFamilies {
		for _, seed := range diffSeeds {
			g, err := cli.BuildGraph(f.gen, f.n, f.d, f.weights, seed)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, instance{f.name + "/" + string(rune('0'+seed)), g, seed})
		}
	}
	dense := gen.ApplyWeights(gen.GnpAvgDegree(1, 3000, 200), 1, gen.UniformRange{Lo: 1, Hi: 100})
	if !reduce.OnlyDomination(dense) {
		t.Fatal("the dense case fails the gate, so it no longer exercises the overlap")
	}
	cases = append(cases, instance{"dense/1", dense, 1})

	for _, c := range cases {
		for _, algo := range []mwvc.Algorithm{mwvc.AlgoMPC, mwvc.AlgoMPCCompress, mwvc.AlgoPDFast} {
			solve := func(par int, opts ...mwvc.Option) *mwvc.Solution {
				sol, err := mwvc.Solve(context.Background(), c.g, append([]mwvc.Option{mwvc.WithAlgorithm(algo),
					mwvc.WithSeed(c.seed), mwvc.WithParallelism(par)}, opts...)...)
				if err != nil {
					t.Fatalf("%s/%s at parallelism %d: %v", c.name, algo, par, err)
				}
				sol.Reduction.ReduceNS = 0 // a measurement, not an output
				return sol
			}
			var k mwvc.Kernel
			seq := solve(1)
			for _, v := range []struct {
				name string
				sol  *mwvc.Solution
			}{
				{"parallelism 2", solve(2)},
				{"filling a Kernel at parallelism 2", solve(2, mwvc.WithKernel(&k))},
				{"taking the Kernel at parallelism 1", solve(1, mwvc.WithKernel(&k))},
				{"taking the Kernel at parallelism 2", solve(2, mwvc.WithKernel(&k))},
			} {
				par := v.sol
				if math.Float64bits(seq.Weight) != math.Float64bits(par.Weight) ||
					math.Float64bits(seq.Bound) != math.Float64bits(par.Bound) ||
					seq.Rounds != par.Rounds || seq.Phases != par.Phases {
					t.Fatalf("%s/%s: weight %v/%v bound %v/%v rounds %d/%d phases %d/%d at parallelism 1 and %s",
						c.name, algo, seq.Weight, par.Weight, seq.Bound, par.Bound,
						seq.Rounds, par.Rounds, seq.Phases, par.Phases, v.name)
				}
				if !reflect.DeepEqual(seq.Cover, par.Cover) {
					t.Fatalf("%s/%s: covers differ at parallelism 1 and %s", c.name, algo, v.name)
				}
				if !reflect.DeepEqual(*seq.Reduction, *par.Reduction) {
					t.Fatalf("%s/%s: reduction %+v at parallelism 1, %+v %s", c.name, algo, *seq.Reduction, *par.Reduction, v.name)
				}
			}
		}
	}
}
