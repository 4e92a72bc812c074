package reduce_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reduce"
	"repro/internal/verify"
)

func mustRun(t *testing.T, g *graph.Graph) *reduce.Result {
	t.Helper()
	res, err := reduce.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func build(t *testing.T, n int, edges [][2]graph.Vertex, weights []float64) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdgeList(n, edges, weights)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestIsolatedRule(t *testing.T) {
	g := build(t, 4, [][2]graph.Vertex{{0, 1}}, []float64{5, 1, 3, 3})
	res := mustRun(t, g)
	if res.Stats.Isolated != 2 {
		t.Fatalf("isolated count %d, want 2 (vertices 2 and 3)", res.Stats.Isolated)
	}
	if res.Stats.KernelVertices != 0 {
		t.Fatalf("kernel not empty: %d vertices", res.Stats.KernelVertices)
	}
}

func TestPendantRuleFiresOnHeavyLeaf(t *testing.T) {
	// Leaf 1 (weight 5) ≥ hub 0 (weight 2): the hub is forced, leaf dropped.
	g := build(t, 2, [][2]graph.Vertex{{0, 1}}, []float64{2, 5})
	res := mustRun(t, g)
	if res.Stats.Pendant != 1 || res.Stats.ForcedWeight != 2 {
		t.Fatalf("pendant=%d forced=%v, want 1/2", res.Stats.Pendant, res.Stats.ForcedWeight)
	}
	cover, forced := res.Trace.Lift([]bool{})
	if forced != 2 || !cover[0] || cover[1] {
		t.Fatalf("lifted cover %v forced %v, want [true false] / 2", cover, forced)
	}
}

func TestPendantRuleRefusesCheapLeaf(t *testing.T) {
	// Leaf 1 (weight 1) < hub 0 (weight 5) and the hub has other business:
	// the local rules cannot decide, so the pair must survive in the kernel.
	// A triangle on {0,2,3} keeps domination from resolving the hub.
	g := build(t, 4, [][2]graph.Vertex{{0, 1}, {0, 2}, {0, 3}, {2, 3}},
		[]float64{5, 1, 4, 4})
	res := mustRun(t, g)
	if res.Stats.Pendant != 0 {
		t.Fatalf("pendant fired %d times on a cheap leaf", res.Stats.Pendant)
	}
}

func TestNeighborhoodWeightRule(t *testing.T) {
	// w(0) = 10 ≥ w(1)+w(2) = 3: both neighbors forced, 0 dropped.
	g := build(t, 3, [][2]graph.Vertex{{0, 1}, {0, 2}}, []float64{10, 1, 2})
	res := mustRun(t, g)
	if res.Stats.NeighborhoodWeight != 1 {
		t.Fatalf("neighborhood rule fired %d times, want 1", res.Stats.NeighborhoodWeight)
	}
	cover, forced := res.Trace.Lift([]bool{})
	if forced != 3 || cover[0] || !cover[1] || !cover[2] {
		t.Fatalf("lifted cover %v forced %v, want [false true true] / 3", cover, forced)
	}
}

// TestNeighborhoodWeightBoundary pins the rule at its edge, where the check
// that skips the neighborhood sum must not skip: a hub of weight deg·w_min,
// or of exactly its neighbors' float sum, still fires, and one just below
// that sum does not. The hub is vertex 0 of a wheel whose rim vertices weigh
// w_min, so every degree is at least 3, no rim vertex dominates another, and
// the hub is the first vertex the rules visit. At k = 10 and w_min = 0.1 the
// float sum is 0.9999999999999999, below deg·w_min = 1.
func TestNeighborhoodWeightBoundary(t *testing.T) {
	for _, c := range []struct {
		k    int
		wmin float64
	}{{4, 1}, {4, 0.1}, {7, 0.1}, {10, 0.1}, {5, 3.7}} {
		edges := make([][2]graph.Vertex, 0, 2*c.k)
		weights := make([]float64, c.k+1)
		sum := 0.0
		for i := 1; i <= c.k; i++ {
			edges = append(edges, [2]graph.Vertex{0, graph.Vertex(i)}, [2]graph.Vertex{graph.Vertex(i), graph.Vertex(i%c.k + 1)})
			weights[i] = c.wmin
			sum += c.wmin
		}
		for _, w := range []float64{float64(c.k) * c.wmin, sum, math.Nextafter(sum, 0)} {
			weights[0] = w
			res := mustRun(t, build(t, c.k+1, edges, weights))
			fired := res.Stats.NeighborhoodWeight == 1 && res.Stats.KernelVertices == 0
			quiet := res.Stats.NeighborhoodWeight == 0 && res.Stats.KernelVertices == c.k+1
			if want := w >= sum; (want && !fired) || (!want && !quiet) {
				t.Errorf("k=%d w_min=%v w(hub)=%v (sum %v): stats %+v, want the rule to fire: %v",
					c.k, c.wmin, w, sum, res.Stats, want)
			}
		}
	}
}

func TestDominationRule(t *testing.T) {
	// Two triangles sharing the edge (1, 2): N[0] = {0,1,2} ⊆ N[1] and
	// w(1) ≤ w(0), so 1 is forced — and no degree or weight-sum rule applies
	// anywhere (every degree ≥ 2, every weight below its neighborhood sum).
	g := build(t, 4, [][2]graph.Vertex{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}},
		[]float64{3, 2, 4, 3})
	res := mustRun(t, g)
	if res.Stats.Domination == 0 {
		t.Fatal("domination never fired on a dominated triangle vertex")
	}
	kernelCover := make([]bool, res.Stats.KernelVertices)
	for i := range kernelCover {
		kernelCover[i] = true // any kernel cover works for validity
	}
	cover, _ := res.Trace.Lift(kernelCover)
	if ok, _ := verify.IsCover(g, cover); !ok {
		t.Fatal("lifted cover is not a cover")
	}
}

func TestDominationRespectsWeights(t *testing.T) {
	// Same shape, but the dominating vertex is more expensive than every
	// neighbor it would replace — forcing it would be unsound to claim, so
	// the weighted rule must not fire on it.
	g := build(t, 3, [][2]graph.Vertex{{0, 1}, {0, 2}, {1, 2}}, []float64{1, 1, 100})
	res := mustRun(t, g)
	cover, forced := res.Trace.Lift(make([]bool, res.Stats.KernelVertices))
	if cover[2] {
		t.Fatalf("weight-100 vertex forced into the cover (forced weight %v)", forced)
	}
}

func TestUnitTreeCollapsesCompletely(t *testing.T) {
	// Pendant + isolated alone must collapse any unit-weight tree.
	g := gen.PreferentialAttachment(3, 2000, 1)
	res := mustRun(t, g)
	if res.Stats.KernelVertices != 0 {
		t.Fatalf("unit tree left a %d-vertex kernel", res.Stats.KernelVertices)
	}
	cover, _ := res.Trace.Lift([]bool{})
	if ok, _ := verify.IsCover(g, cover); !ok {
		t.Fatal("lifted cover of the collapsed tree is not a cover")
	}
}

func TestNothingToReduceAliasesInput(t *testing.T) {
	// A 5-cycle with increasing weights resists every rule; Run must return
	// the input graph itself (no copy) and a nil trace.
	g := build(t, 5, [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}},
		[]float64{2, 3, 4, 5, 6})
	res := mustRun(t, g)
	if res.Kernel != g {
		t.Fatal("irreducible instance did not alias the input graph")
	}
	if res.Trace != nil {
		t.Fatal("irreducible instance returned a non-nil trace")
	}
	if res.Stats.KernelVertices != 5 || res.Stats.KernelEdges != 5 {
		t.Fatalf("stats %+v do not report the unchanged size", res.Stats)
	}
}

// TestOptimumPreservedOnRandomInstances is the core soundness property:
// OPT(G) = ForcedWeight + OPT(kernel) on a matrix of small random graphs,
// with the optimum computed independently by brute force on both sides.
func TestOptimumPreservedOnRandomInstances(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		for _, d := range []float64{1, 2.5, 5} {
			g := gen.ApplyWeights(gen.GnpAvgDegree(seed, 18, d), seed+7,
				gen.UniformRange{Lo: 1, Hi: 10})
			_, opt, err := exact.BruteForce(g)
			if err != nil {
				t.Fatal(err)
			}
			res := mustRun(t, g)
			kernelOpt := 0.0
			kernelCover := []bool{}
			if res.Stats.KernelVertices > 0 {
				kernelCover, kernelOpt, err = exact.BruteForce(res.Kernel)
				if err != nil {
					t.Fatal(err)
				}
			}
			forcedW := 0.0
			cover := kernelCover
			if res.Trace != nil {
				cover, forcedW = res.Trace.Lift(kernelCover)
			}
			if math.Abs(forcedW+kernelOpt-opt) > 1e-9 {
				t.Fatalf("seed %d d %v: forced %v + kernel OPT %v != OPT %v (stats %+v)",
					seed, d, forcedW, kernelOpt, opt, res.Stats)
			}
			if ok, e := verify.IsCover(g, cover); !ok {
				t.Fatalf("seed %d d %v: lifted optimal cover misses edge %d", seed, d, e)
			}
			if w := verify.CoverWeight(g, cover); math.Abs(w-opt) > 1e-9 {
				t.Fatalf("seed %d d %v: lifted cover weight %v, OPT %v", seed, d, w, opt)
			}
		}
	}
}

func TestLiftDualsFeasibleOnOriginal(t *testing.T) {
	// Any feasible kernel dual must lift to a feasible dual on the original.
	g := gen.ApplyWeights(gen.GnpAvgDegree(9, 60, 3), 2, gen.UniformRange{Lo: 1, Hi: 10})
	res := mustRun(t, g)
	if res.Trace == nil || res.Stats.KernelEdges == 0 {
		t.Skip("instance reduced to an edgeless kernel; nothing to lift")
	}
	// A trivially feasible kernel dual: every edge gets a tiny value.
	x := make([]float64, res.Stats.KernelEdges)
	for i := range x {
		x[i] = 1e-3
	}
	if err := verify.DualFeasible(res.Kernel, x); err != nil {
		t.Fatal(err)
	}
	lifted := res.Trace.LiftDuals(x)
	if err := verify.DualFeasible(g, lifted); err != nil {
		t.Fatalf("lifted dual infeasible on the original: %v", err)
	}
	if math.Abs(verify.DualValue(lifted)-verify.DualValue(x)) > 1e-12 {
		t.Fatal("lifting changed the dual value")
	}
}

func TestDeterministic(t *testing.T) {
	g := gen.ApplyWeights(gen.GnpAvgDegree(5, 300, 3), 6, gen.UniformRange{Lo: 1, Hi: 100})
	a, b := mustRun(t, g), mustRun(t, g)
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", a.Stats, b.Stats)
	}
	ca, _ := a.Trace.Lift(make([]bool, a.Stats.KernelVertices))
	cb, _ := b.Trace.Lift(make([]bool, b.Stats.KernelVertices))
	if !reflect.DeepEqual(ca, cb) {
		t.Fatal("forced sets differ across identical runs")
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.GnpAvgDegree(1, 20000, 4)
	if _, err := reduce.Run(ctx, g); err == nil {
		t.Fatal("cancelled reduction returned no error")
	}
}

func TestEmptyGraph(t *testing.T) {
	res := mustRun(t, graph.NewBuilder(0).MustBuild())
	if res.Stats.KernelVertices != 0 || res.Trace != nil {
		t.Fatalf("empty graph: %+v", res.Stats)
	}
}
