package mwvc_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	mwvc "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
)

// TestCSRRoundTripBitIdenticalSolutions is the representation-independence
// property test of the graph core: a graph built through the buffered
// Builder (slice path) and the same instance serialized to the streaming
// edge-list format and re-ingested through the two-pass CSR path must
// produce bit-identical Solutions for every registered algorithm and
// several seeds. Solvers key per-edge state by edge id, so this pins not
// just isomorphism but identical edge-id assignment across construction
// paths — the invariant that makes ingestion path an implementation detail.
func TestCSRRoundTripBitIdenticalSolutions(t *testing.T) {
	instances := []struct {
		name string
		g    *mwvc.Graph
	}{
		// n ≤ 64 keeps exact in play.
		{"unit-weights", gen.GnpAvgDegree(3, 48, 6)},
		{"weighted", gen.ApplyWeights(gen.GnpAvgDegree(4, 56, 5), 9, gen.UniformRange{Lo: 1, Hi: 100})},
	}
	for _, inst := range instances {
		t.Run(inst.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := graph.WriteEdgeList(&buf, inst.g); err != nil {
				t.Fatal(err)
			}
			r := bytes.NewReader(buf.Bytes())
			streamed, err := graph.ReadStream(r, r.Size())
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range mwvc.Algorithms() {
				for seed := uint64(1); seed <= 3; seed++ {
					opts := []mwvc.Option{mwvc.WithAlgorithm(algo), mwvc.WithSeed(seed)}
					want, errWant := mwvc.Solve(context.Background(), inst.g, opts...)
					got, errGot := mwvc.Solve(context.Background(), streamed, opts...)
					if (errWant == nil) != (errGot == nil) {
						t.Fatalf("%s seed %d: slice err=%v, stream err=%v", algo, seed, errWant, errGot)
					}
					if errWant != nil {
						// Same unsupported-domain rejection on both paths (e.g.
						// exact beyond its vertex limit) is a pass.
						if !errors.Is(errWant, solver.ErrUnsupported) || errWant.Error() != errGot.Error() {
							t.Fatalf("%s seed %d: errors differ: %v vs %v", algo, seed, errWant, errGot)
						}
						continue
					}
					assertSameSolution(t, string(algo), seed, want, got)
				}
			}
		})
	}
}

func assertSameSolution(t *testing.T, algo string, seed uint64, want, got *mwvc.Solution) {
	t.Helper()
	if !reflect.DeepEqual(want.Cover, got.Cover) {
		t.Fatalf("%s seed %d: covers differ", algo, seed)
	}
	// Weight/Bound/CertifiedRatio must match bit-for-bit, not within an
	// epsilon: both solves walk identical edge ids in identical order, so
	// even float summation order is the same.
	for _, c := range []struct {
		name      string
		want, got float64
	}{
		{"Weight", want.Weight, got.Weight},
		{"Bound", want.Bound, got.Bound},
		{"CertifiedRatio", want.CertifiedRatio, got.CertifiedRatio},
	} {
		if math.Float64bits(c.want) != math.Float64bits(c.got) {
			t.Fatalf("%s seed %d: %s differs: %v vs %v", algo, seed, c.name, c.want, c.got)
		}
	}
	if want.Rounds != got.Rounds || want.Phases != got.Phases || want.Exact != got.Exact {
		t.Fatalf("%s seed %d: accounting differs: rounds %d/%d phases %d/%d exact %v/%v",
			algo, seed, want.Rounds, got.Rounds, want.Phases, got.Phases, want.Exact, got.Exact)
	}
}
