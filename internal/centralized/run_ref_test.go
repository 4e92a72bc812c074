package centralized

// Reference for Run. refRun keeps Algorithm 1's loop in its full-sweep form:
// each iteration visits every vertex and every edge under an activity mask.
// Run visits only the live vertices and active edges. TestRunMatchesReference
// compares the two bit for bit on a matrix of graphs and options, so a change
// to Run's lists that reorders a single float addition fails here.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
)

// refResult is Result as the full-sweep loop filled it, with the per-edge
// freeze log EdgeFreezeIter that Result no longer carries.
type refResult struct {
	// Cover[v] reports whether v was frozen (selected into the cover).
	Cover []bool
	// X holds the final dual variables (a feasible fractional matching).
	X []float64
	// FreezeIter[v] is the iteration at which v froze, or -1.
	FreezeIter []int
	// EdgeFreezeIter[e] is the iteration at which e froze, or -1 if e was
	// still active when Options.StopAfter ended the run.
	EdgeFreezeIter []int
	// Iterations is the number of executed iterations of the main loop
	// (equivalently: rounds when the algorithm is read as a LOCAL/PRAM
	// baseline, one iteration per communication round).
	Iterations int
	// YTrace[t][v] is y_{v,t} when Options.RecordTrace is set, else nil.
	// It has Iterations+1 entries: one per executed iteration plus a final
	// snapshot of the state after the last growth step.
	YTrace [][]float64
}

// refDeriveX0 is the per-edge DeriveX0: it divides w(v)/d(v) twice per edge.
func refDeriveX0(g *graph.Graph, policy InitPolicy) ([]float64, error) {
	w := g.Weights()
	ep := g.EdgeEndpoints()
	x0 := make([]float64, g.NumEdges())
	switch policy {
	case InitDegreeAware:
		for e := range x0 {
			u, v := ep[2*e], ep[2*e+1]
			x0[e] = min(w[u]/float64(g.Degree(u)), w[v]/float64(g.Degree(v)))
		}
	case InitUniform:
		// x_e = w_min/n is feasible: Σ_{e∋v} x_e ≤ d(v)·w_min/n ≤ w_min ≤ w(v).
		if len(w) == 0 {
			return x0, nil
		}
		base := slices.Min(w) / float64(len(w))
		for e := range x0 {
			x0[e] = base
		}
	default:
		return nil, fmt.Errorf("centralized: unknown init policy %v", policy)
	}
	return x0, nil
}

// refRun is Algorithm 1 as a full sweep: every iteration tests all n vertices
// for freezing and grows all m edges and n vertices under the activity
// masks. Run must match it bit for bit.
func refRun(ctx context.Context, inst Instance, opts Options) (*refResult, error) {
	g, _ := inst.G.(*graph.Graph)
	if g == nil {
		return nil, errors.New("centralized: nil graph")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Epsilon <= 0 || opts.Epsilon > 0.125 {
		return nil, fmt.Errorf("centralized: epsilon %v out of (0, 0.125]", opts.Epsilon)
	}
	n, m := g.NumVertices(), g.NumEdges()
	w := g.Weights()
	active := make([]bool, n)
	for v := range active {
		active[v] = true
	}

	x0 := inst.X0
	if x0 == nil {
		var err error
		if x0, err = refDeriveX0(g, opts.Init); err != nil {
			return nil, err
		}
	} else if len(x0) != m {
		return nil, fmt.Errorf("centralized: X0 length %d, want %d", len(x0), m)
	}

	threshold := opts.Threshold
	if threshold == nil {
		threshold = RandomThresholds(opts.Seed, opts.Epsilon)
	}

	growth := 1 / (1 - opts.Epsilon)

	// Edge activity and the incremental incident sums.
	// yActive[v] = Σ over active incident edges of the *current* x_e;
	// yFrozen[v] = Σ over frozen incident edges of their final x_e.
	x := make([]float64, m)
	edgeActive := make([]bool, m)
	edgeFreeze := make([]int, m)
	yActive := make([]float64, n)
	yFrozen := make([]float64, n)
	activeEdges := 0
	maxRatio := 1.0
	for e := 0; e < m; e++ {
		edgeFreeze[e] = -1
		u, v := g.Edge(graph.EdgeID(e))
		if !(x0[e] > 0) {
			return nil, fmt.Errorf("centralized: initial x[%d] = %v, want positive", e, x0[e])
		}
		x[e] = x0[e]
		edgeActive[e] = true
		activeEdges++
		yActive[u] += x0[e]
		yActive[v] += x0[e]
		if r := math.Min(w[u], w[v]) / x0[e]; r > maxRatio {
			maxRatio = r
		}
	}
	for v := 0; v < n; v++ {
		if yActive[v] > w[v]*(1+1e-9) {
			return nil, fmt.Errorf("centralized: initial matching infeasible at vertex %d: %v > %v", v, yActive[v], w[v])
		}
	}

	// An active edge e=(u,v) reaches x_e ≥ min(w(u), w(v)) after at most
	// log_growth(maxRatio) iterations, at which point an endpoint must have
	// frozen (its threshold is at most (1−2ε) < 1). +3 for slack.
	maxIter := int(math.Ceil(math.Log(maxRatio)/math.Log(growth))) + 3

	res := &refResult{
		Cover:          make([]bool, n),
		FreezeIter:     make([]int, n),
		EdgeFreezeIter: edgeFreeze,
	}
	for v := range res.FreezeIter {
		res.FreezeIter[v] = -1
	}

	// frozenDualSum tracks Σ x_e over frozen (finalized) edges for observer
	// events; it is the raw dual total the certificate later builds on.
	frozenDualSum := 0.0
	var freezeList []graph.Vertex
	// With StopAfter set, exactly StopAfter iterations run, also after the
	// last active edge froze.
	t := 0
	for ; activeEdges > 0 || t < opts.StopAfter; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.StopAfter > 0 && t >= opts.StopAfter {
			break
		}
		if activeEdges > 0 && t >= maxIter {
			return nil, fmt.Errorf("centralized: no termination after %d iterations (%d active edges remain)", t, activeEdges)
		}
		if opts.RecordTrace {
			snap := make([]float64, n)
			for v := 0; v < n; v++ {
				snap[v] = yActive[v] + yFrozen[v]
			}
			res.YTrace = append(res.YTrace, snap)
		}

		// Line (4a): simultaneous freeze test against start-of-iteration y.
		freezeList = freezeList[:0]
		for v := 0; v < n; v++ {
			if active[v] && yActive[v]+yFrozen[v] >= threshold(graph.Vertex(v), t)*w[v] {
				freezeList = append(freezeList, graph.Vertex(v))
			}
		}
		for _, v := range freezeList {
			active[v] = false
			res.Cover[v] = true
			res.FreezeIter[v] = t
		}
		for _, v := range freezeList {
			ids := g.IncidentEdges(v)
			for _, e := range ids {
				if !edgeActive[e] {
					continue
				}
				edgeActive[e] = false
				edgeFreeze[e] = t
				activeEdges--
				frozenDualSum += x[e]
				u := g.Other(e, v)
				// Move the edge's weight from the active to the frozen sum of
				// the surviving endpoint (and of v itself, harmlessly).
				yActive[u] -= x[e]
				yFrozen[u] += x[e]
				yActive[v] -= x[e]
				yFrozen[v] += x[e]
			}
		}

		// Lines (4b)/(4c): active edges grow by 1/(1−ε); frozen stay.
		if activeEdges > 0 || t+1 < opts.StopAfter {
			for e := 0; e < m; e++ {
				if edgeActive[e] {
					x[e] *= growth
				}
			}
			for v := 0; v < n; v++ {
				if active[v] {
					yActive[v] *= growth
				}
			}
		}
		solver.Emit(opts.Observer, solver.Event{
			Kind:        solver.KindRound,
			Phase:       -1,
			Round:       t + 1,
			ActiveEdges: int64(activeEdges),
			DualBound:   frozenDualSum,
		})
	}
	if opts.RecordTrace {
		// One extra snapshot so YTrace[t] is defined for t = Iterations as
		// well (the state after the last growth step), which the Lemma 4.6
		// coupling compares against.
		snap := make([]float64, n)
		for v := 0; v < n; v++ {
			snap[v] = yActive[v] + yFrozen[v]
		}
		res.YTrace = append(res.YTrace, snap)
	}
	res.Iterations = t
	res.X = x
	return res, nil
}

type refGraph struct {
	name string
	g    *graph.Graph
}

// refGraphs is the matrix's graphs. G(10000, 16) is the serve-mixed
// benchmark's shape, where Algorithm 1 is the whole mpc solve.
func refGraphs() []refGraph {
	uniform := gen.UniformRange{Lo: 1, Hi: 100}
	// G(300, 6) on 400 vertices: the last 100 are isolated and never freeze.
	sub := gen.GnpAvgDegree(4, 300, 6)
	b := graph.NewBuilder(400)
	for e := 0; e < sub.NumEdges(); e++ {
		b.AddEdge(sub.Edge(graph.EdgeID(e)))
	}
	return []refGraph{
		{"gnp-d3", gen.ApplyWeights(gen.GnpAvgDegree(1, 3000, 3), 1, uniform)},
		{"gnp-d16", gen.ApplyWeights(gen.GnpAvgDegree(1, 10000, 16), 1, uniform)},
		{"gnp-d64", gen.ApplyWeights(gen.GnpAvgDegree(2, 2000, 64), 2, uniform)},
		{"powerlaw", gen.ApplyWeights(gen.PreferentialAttachment(3, 3000, 4), 3, gen.Exponential{Mean: 4})},
		{"star", gen.ApplyWeights(gen.Star(200), 5, uniform)},
		{"isolated", gen.ApplyWeights(b.MustBuild(), 4, uniform)},
		{"edgeless", graph.NewBuilder(50).MustBuild()},
	}
}

// refOptions is the matrix's options. explicitX0 passes half of the
// degree-aware initialization as Instance.X0.
var refOptions = []struct {
	name       string
	opts       Options
	explicitX0 bool
}{
	{"degree-aware", Options{Epsilon: 0.1, Seed: 3}, false},
	{"uniform", Options{Epsilon: 0.1, Seed: 3, Init: InitUniform}, false},
	{"explicit-x0", Options{Epsilon: 0.1, Seed: 3}, true},
	{"fixed-threshold", Options{Epsilon: 0.1, Threshold: FixedThreshold(0.1)}, false},
	{"stop-after-1", Options{Epsilon: 0.1, Seed: 3, StopAfter: 1}, false},
	{"stop-after-3", Options{Epsilon: 0.05, Seed: 3, StopAfter: 3}, false},
	{"stop-after-64", Options{Epsilon: 0.1, Seed: 3, StopAfter: 64, RecordTrace: true}, false},
	{"trace", Options{Epsilon: 0.1, Seed: 3, RecordTrace: true}, false},
	// A threshold no vertex reaches runs every graph with an edge into the
	// derived iteration bound and its "no termination" error.
	{"max-iterations", Options{Epsilon: 0.1, Seed: 3, Threshold: func(graph.Vertex, int) float64 { return math.Inf(1) }}, false},
}

func TestRunMatchesReference(t *testing.T) {
	failed := 0
	for _, gc := range refGraphs() {
		for _, oc := range refOptions {
			t.Run(gc.name+"/"+oc.name, func(t *testing.T) {
				inst := Instance{G: gc.g}
				var x0 []float64
				if oc.explicitX0 {
					var err error
					if inst.X0, err = DeriveX0(gc.g, InitDegreeAware); err != nil {
						t.Fatal(err)
					}
					for e := range inst.X0 {
						inst.X0[e] /= 2
					}
					x0 = slices.Clone(inst.X0)
				}
				var wantEv, gotEv []solver.Event
				opts := oc.opts
				opts.Observer = solver.ObserverFunc(func(e solver.Event) { wantEv = append(wantEv, e) })
				want, wantErr := refRun(context.Background(), inst, opts)
				opts.Observer = solver.ObserverFunc(func(e solver.Event) { gotEv = append(gotEv, e) })
				got, gotErr := Run(context.Background(), inst, opts)
				if i := firstBitDiff(inst.X0, x0); i >= 0 {
					t.Fatalf("Run wrote the caller's X0 at edge %d", i)
				}
				if wantErr != nil {
					failed++
				}
				compareRuns(t, want, wantErr, wantEv, got, gotErr, gotEv)
			})
		}
	}
	if failed == 0 {
		t.Fatal("no case ran into the iteration bound")
	}
}

func compareRuns(t *testing.T, want *refResult, wantErr error, wantEv []solver.Event, got *Result, gotErr error, gotEv []solver.Event) {
	t.Helper()
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("error %q, want %q", errText(gotErr), errText(wantErr))
	}
	if len(gotEv) != len(wantEv) {
		t.Fatalf("%d events, want %d", len(gotEv), len(wantEv))
	}
	for i := range wantEv {
		if !sameEvent(gotEv[i], wantEv[i]) {
			t.Fatalf("event %d: %+v, want %+v", i, gotEv[i], wantEv[i])
		}
	}
	if wantErr != nil {
		return
	}
	if !slices.Equal(got.Cover, want.Cover) {
		t.Fatal("covers differ")
	}
	if i := firstBitDiff(got.X, want.X); i >= 0 {
		t.Fatalf("X[%d] = %v, want %v", i, got.X[i], want.X[i])
	}
	if !slices.Equal(got.FreezeIter, want.FreezeIter) {
		t.Fatal("FreezeIter differs")
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%d iterations, want %d", got.Iterations, want.Iterations)
	}
	if len(got.YTrace) != len(want.YTrace) {
		t.Fatalf("%d trace snapshots, want %d", len(got.YTrace), len(want.YTrace))
	}
	for it := range want.YTrace {
		if v := firstBitDiff(got.YTrace[it], want.YTrace[it]); v >= 0 {
			t.Fatalf("YTrace[%d][%d] = %v, want %v", it, v, got.YTrace[it][v], want.YTrace[it][v])
		}
	}
}

// firstBitDiff returns the first index where a and b differ in length or in
// Float64bits, or -1 when they are identical.
func firstBitDiff(a, b []float64) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// sameEvent compares every field, the float ones by Float64bits.
func sameEvent(a, b solver.Event) bool {
	fa := [3]uint64{math.Float64bits(a.DualBound), math.Float64bits(a.Degree), math.Float64bits(a.Weight)}
	fb := [3]uint64{math.Float64bits(b.DualBound), math.Float64bits(b.Degree), math.Float64bits(b.Weight)}
	a.DualBound, a.Degree, a.Weight = 0, 0, 0
	b.DualBound, b.Degree, b.Weight = 0, 0, 0
	return fa == fb && a == b
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
