package centralized

import (
	"context"

	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/verify"
)

func run(t *testing.T, g *graph.Graph, opts Options) *Result {
	t.Helper()
	res, err := Run(context.Background(), Instance{G: g}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func defaultOpts() Options { return Options{Epsilon: 0.1, Seed: 1} }

func TestTriangleCover(t *testing.T) {
	g, err := graph.FromEdgeList(3, [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, g, defaultOpts())
	cert, err := verify.NewCertificate(g, res.Cover, res.X)
	if err != nil {
		t.Fatal(err)
	}
	// OPT = 2 for the unit triangle; Proposition 3.3: ratio ≤ 2+10ε = 3.
	if cert.Weight > 3*2+1e-9 {
		t.Fatalf("cover weight %v too large", cert.Weight)
	}
	if cert.Ratio() > 2+10*0.1+1e-9 {
		t.Fatalf("certified ratio %v exceeds 2+10ε", cert.Ratio())
	}
}

func TestStarPrefersCenterWhenCheap(t *testing.T) {
	// Star with cheap center: the cover should be {center} (weight 1)
	// rather than the 50 leaves (weight 50).
	n := 51
	b := graph.NewBuilder(n)
	b.SetWeight(0, 1)
	for v := 1; v < n; v++ {
		b.SetWeight(graph.Vertex(v), 1)
		b.AddEdge(0, graph.Vertex(v))
	}
	g := b.MustBuild()
	res := run(t, g, defaultOpts())
	cert, err := verify.NewCertificate(g, res.Cover, res.X)
	if err != nil {
		t.Fatal(err)
	}
	// OPT = 1 (the center); allow the 2+10ε slack.
	if cert.Weight > (2+10*0.1)*1+1e-9 {
		t.Fatalf("star cover weight %v", cert.Weight)
	}
}

func TestExpensiveCenterStar(t *testing.T) {
	// Star with a very expensive center: OPT is the center anyway only if
	// leaves cost more. Here leaves are cheap, so OPT = all leaves = 5.
	n := 6
	b := graph.NewBuilder(n)
	b.SetWeight(0, 1000)
	for v := 1; v < n; v++ {
		b.SetWeight(graph.Vertex(v), 1)
		b.AddEdge(0, graph.Vertex(v))
	}
	g := b.MustBuild()
	res := run(t, g, defaultOpts())
	cert, err := verify.NewCertificate(g, res.Cover, res.X)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Weight > (2+1)*5+1e-9 {
		t.Fatalf("expensive-center cover weight %v, OPT=5", cert.Weight)
	}
	if res.Cover[0] {
		t.Fatal("algorithm picked the 1000-weight center over 5 unit leaves")
	}
}

func TestEdgelessGraph(t *testing.T) {
	g := graph.NewBuilder(10).MustBuild()
	res := run(t, g, defaultOpts())
	if res.Iterations != 0 {
		t.Fatalf("edgeless run took %d iterations", res.Iterations)
	}
	for v, in := range res.Cover {
		if in {
			t.Fatalf("vertex %d in cover of edgeless graph", v)
		}
	}
}

// With StopAfter the run goes on past its last active edge: on an edgeless
// graph, a threshold that turns negative at t = 1 freezes every vertex
// there, and all three iterations run.
func TestStopAfterRunsEveryIteration(t *testing.T) {
	g := graph.NewBuilder(5).MustBuild()
	res := run(t, g, Options{Epsilon: 0.1, StopAfter: 3, Threshold: func(_ graph.Vertex, it int) float64 {
		if it >= 1 {
			return -1
		}
		return 0.7
	}})
	if res.Iterations != 3 {
		t.Fatalf("%d iterations, want 3", res.Iterations)
	}
	for v, fi := range res.FreezeIter {
		if fi != 1 || !res.Cover[v] {
			t.Fatalf("vertex %d froze at %d (cover %v), want 1", v, fi, res.Cover[v])
		}
	}
}

func TestDualFeasibleThroughout(t *testing.T) {
	// Feasibility of the *final* duals is checked by the certificate in
	// every other test; here we re-run with traces and verify y never
	// exceeds w (Observation 3.1) at any iteration.
	g := gen.ApplyWeights(gen.Gnp(3, 200, 0.05), 9, gen.UniformRange{Lo: 1, Hi: 50})
	opts := defaultOpts()
	opts.RecordTrace = true
	res := run(t, g, opts)
	for it, snap := range res.YTrace {
		for v, y := range snap {
			if y > g.Weight(graph.Vertex(v))*(1+1e-9) {
				t.Fatalf("iteration %d: y[%d]=%v exceeds weight %v", it, v, y, g.Weight(graph.Vertex(v)))
			}
		}
	}
}

func TestPropositionRatioAcrossFamilies(t *testing.T) {
	eps := 0.1
	families := map[string]*graph.Graph{
		"gnp":       gen.ApplyWeights(gen.Gnp(1, 300, 0.03), 5, gen.UniformRange{Lo: 1, Hi: 100}),
		"powerlaw":  gen.ApplyWeights(gen.PreferentialAttachment(2, 300, 3), 6, gen.Exponential{Mean: 4}),
		"bipartite": gen.ApplyWeights(gen.RandomBipartite(3, 150, 150, 0.05), 7, gen.PowerLaw{MaxWeight: 1e6}),
		"grid":      gen.ApplyWeights(gen.Grid(15, 20), 8, gen.UniformRange{Lo: 1, Hi: 10}),
		"clique":    gen.Clique(40),
	}
	for name, g := range families {
		res, err := Run(context.Background(), Instance{G: g}, Options{Epsilon: eps, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cert, err := verify.NewCertificate(g, res.Cover, res.X)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r := cert.Ratio(); r > 2+10*eps+1e-9 {
			t.Fatalf("%s: certified ratio %v exceeds 2+10ε", name, r)
		}
	}
}

func TestProposition34IterationBound(t *testing.T) {
	// Degree-aware init: iterations ≤ log_{1/(1−ε)} Δ + O(1), independent of
	// the weight range.
	eps := 0.1
	growth := 1 / (1 - eps)
	for _, wmax := range []float64{1, 1e3, 1e9} {
		g := gen.ApplyWeights(gen.Gnp(4, 400, 0.05), 3, gen.PowerLaw{MaxWeight: math.Max(wmax, 2)})
		res, err := Run(context.Background(), Instance{G: g}, Options{Epsilon: eps, Seed: 2, Init: InitDegreeAware})
		if err != nil {
			t.Fatal(err)
		}
		bound := math.Log(float64(g.MaxDegree()))/math.Log(growth) + 3
		if float64(res.Iterations) > bound {
			t.Fatalf("wmax=%g: %d iterations exceed O(log Δ) bound %.1f", wmax, res.Iterations, bound)
		}
	}
}

func TestUniformInitDegradesWithWeightRange(t *testing.T) {
	// Uniform 1/n init: iterations grow with the weight range; degree-aware
	// stays flat. This is the heart of experiment E5.
	eps := 0.1
	base := gen.Gnp(4, 300, 0.05)
	iters := func(wmax float64, policy InitPolicy) int {
		g := gen.ApplyWeights(base, 3, gen.PowerLaw{MaxWeight: wmax})
		res, err := Run(context.Background(), Instance{G: g}, Options{Epsilon: eps, Seed: 2, Init: policy})
		if err != nil {
			t.Fatal(err)
		}
		return res.Iterations
	}
	uniSmall, uniBig := iters(2, InitUniform), iters(1e9, InitUniform)
	awareBig := iters(1e9, InitDegreeAware)
	// Uniform init needs Θ(log(nW)) iterations: W ×5e8 ⇒ ≥ 50 extra
	// iterations at ε=0.1.
	if uniBig-uniSmall < 50 {
		t.Fatalf("uniform init did not degrade with weight range: %d vs %d", uniSmall, uniBig)
	}
	// Degree-aware init stays within the weight-independent O(log Δ) bound
	// even at W=1e9 (Proposition 3.4).
	g := gen.ApplyWeights(base, 3, gen.PowerLaw{MaxWeight: 1e9})
	bound := math.Log(float64(g.MaxDegree()))/math.Log(1/(1-eps)) + 3
	if float64(awareBig) > bound {
		t.Fatalf("degree-aware init took %d iterations, exceeds O(log Δ) bound %.1f", awareBig, bound)
	}
	if uniBig <= 2*awareBig {
		t.Fatalf("uniform (%d iters) should be ≫ degree-aware (%d) at W=1e9", uniBig, awareBig)
	}
}

// TestLocalPrimalDualRounds runs the two registered LOCAL baselines, one
// iteration per round, on weights log-uniform in [1, 1e6).
func TestLocalPrimalDualRounds(t *testing.T) {
	eps := 0.1
	g := gen.ApplyWeights(gen.GnpAvgDegree(7, 1000, 32), 2, gen.PowerLaw{MaxWeight: 1e6})
	rounds := make(map[InitPolicy]int)
	for _, init := range []InitPolicy{InitDegreeAware, InitUniform} {
		out, err := solverFor(init)(context.Background(), g, solver.Config{Epsilon: eps, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cert, err := verify.NewCertificate(g, out.Cover, out.Duals)
		if err != nil {
			t.Fatalf("%v: %v", init, err)
		}
		if cert.Ratio() > 2+10*eps+1e-9 {
			t.Fatalf("%v: ratio %v", init, cert.Ratio())
		}
		if out.Rounds <= 0 {
			t.Fatalf("%v: no rounds", init)
		}
		rounds[init] = out.Rounds
	}
	// The weight range of 1e6 must hurt the uniform baseline, not the
	// degree-aware one — this is the gap the paper's initialization closes.
	if rounds[InitUniform] <= rounds[InitDegreeAware] {
		t.Fatalf("uniform (%d rounds) should exceed degree-aware (%d)", rounds[InitUniform], rounds[InitDegreeAware])
	}
}

func TestExplicitX0(t *testing.T) {
	g, err := graph.FromEdgeList(3, [][2]graph.Vertex{{0, 1}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Instance{G: g, X0: []float64{0.25, 0.25}}, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := verify.IsCover(g, res.Cover); !ok {
		t.Fatal("not a cover")
	}
	// Infeasible X0 must be rejected.
	if _, err := Run(context.Background(), Instance{G: g, X0: []float64{0.9, 0.9}}, defaultOpts()); err == nil {
		t.Fatal("infeasible X0 accepted")
	}
	// Non-positive X0 on an active edge must be rejected.
	if _, err := Run(context.Background(), Instance{G: g, X0: []float64{0, 0.1}}, defaultOpts()); err == nil {
		t.Fatal("zero X0 accepted")
	}
}

func TestOptionValidation(t *testing.T) {
	g, _ := graph.FromEdgeList(2, [][2]graph.Vertex{{0, 1}}, nil)
	if _, err := Run(context.Background(), Instance{G: g}, Options{Epsilon: 0}); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
	if _, err := Run(context.Background(), Instance{G: g}, Options{Epsilon: 0.5}); err == nil {
		t.Fatal("epsilon 0.5 accepted")
	}
	if _, err := Run(context.Background(), Instance{G: nil}, defaultOpts()); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Run(context.Background(), Instance{G: g, X0: []float64{1, 2, 3}}, defaultOpts()); err == nil {
		t.Fatal("bad X0 length accepted")
	}
}

func TestDeterminism(t *testing.T) {
	g := gen.ApplyWeights(gen.Gnp(8, 150, 0.08), 2, gen.Exponential{Mean: 3})
	a := run(t, g, Options{Epsilon: 0.05, Seed: 42})
	b := run(t, g, Options{Epsilon: 0.05, Seed: 42})
	for v := range a.Cover {
		if a.Cover[v] != b.Cover[v] {
			t.Fatal("same seed, different covers")
		}
	}
	for e := range a.X {
		if a.X[e] != b.X[e] {
			t.Fatal("same seed, different duals")
		}
	}
	c := run(t, g, Options{Epsilon: 0.05, Seed: 43})
	diff := false
	for v := range a.Cover {
		if a.Cover[v] != c.Cover[v] {
			diff = true
			break
		}
	}
	// Different seeds usually give (slightly) different covers; tolerate
	// coincidence only if the duals differ somewhere.
	if !diff {
		sameX := true
		for e := range a.X {
			if a.X[e] != c.X[e] {
				sameX = false
				break
			}
		}
		if sameX {
			t.Log("warning: different seeds produced identical runs (possible but unlikely)")
		}
	}
}

func TestFixedThresholdAblation(t *testing.T) {
	g := gen.Gnp(5, 100, 0.1)
	res, err := Run(context.Background(), Instance{G: g}, Options{Epsilon: 0.1, Threshold: FixedThreshold(0.1)})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := verify.NewCertificate(g, res.Cover, res.X)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Ratio() > 3+1e-9 {
		t.Fatalf("fixed-threshold ratio %v", cert.Ratio())
	}
}

// TestActiveEdgeTraceMonotone reads the active-edge counts off the
// KindRound events: one event per iteration, and the count never grows.
func TestActiveEdgeTraceMonotone(t *testing.T) {
	g := gen.Gnp(6, 200, 0.05)
	var active []int64
	opts := defaultOpts()
	opts.Observer = solver.ObserverFunc(func(e solver.Event) {
		if e.Kind == solver.KindRound {
			active = append(active, e.ActiveEdges)
		}
	})
	res := run(t, g, opts)
	if len(active) != res.Iterations {
		t.Fatalf("%d round events vs %d iterations", len(active), res.Iterations)
	}
	prev := int64(g.NumEdges())
	for i, a := range active {
		if a > prev {
			t.Fatalf("active edges increased at iteration %d: %d > %d", i, a, prev)
		}
		prev = a
	}
}

// TestFreezeIterConsistency checks that an edge froze with the earlier of
// its endpoints: growth multiplies x_e by 1/(1−ε) once per iteration before
// that, so x_e is x0_e grown exactly t* times, bit for bit.
func TestFreezeIterConsistency(t *testing.T) {
	g := gen.ApplyWeights(gen.Gnp(7, 120, 0.08), 3, gen.UniformRange{Lo: 1, Hi: 9})
	opts := defaultOpts()
	res := run(t, g, opts)
	x0, err := DeriveX0(g, opts.Init)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if res.Cover[v] != (res.FreezeIter[v] >= 0) {
			t.Fatalf("vertex %d cover/freeze mismatch", v)
		}
	}
	growth := 1 / (1 - opts.Epsilon)
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.Edge(graph.EdgeID(e))
		fu, fv := res.FreezeIter[u], res.FreezeIter[v]
		earliest := -1
		if fu >= 0 {
			earliest = fu
		}
		if fv >= 0 && (earliest < 0 || fv < earliest) {
			earliest = fv
		}
		if earliest < 0 {
			t.Fatalf("edge %d never froze", e)
		}
		want := x0[e]
		for range earliest {
			want *= growth
		}
		if math.Float64bits(res.X[e]) != math.Float64bits(want) {
			t.Fatalf("edge %d: x = %v, want x0 grown %d times = %v (endpoints froze at %d/%d)", e, res.X[e], earliest, want, fu, fv)
		}
	}
}

// Property: on random instances the result is always a cover with feasible
// duals and certified ratio within 2+10ε.
func TestQuickCoverAndRatio(t *testing.T) {
	eps := 0.1
	f := func(seed uint64) bool {
		n := 10 + int(seed%80)
		g := gen.ApplyWeights(gen.Gnp(seed, n, 0.15), seed+1, gen.UniformRange{Lo: 0.5, Hi: 20})
		res, err := Run(context.Background(), Instance{G: g}, Options{Epsilon: eps, Seed: seed + 2})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		cert, err := verify.NewCertificate(g, res.Cover, res.X)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return cert.Ratio() <= 2+10*eps+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdFuncsInRange(t *testing.T) {
	eps := 0.08
	th := RandomThresholds(5, eps)
	for v := graph.Vertex(0); v < 100; v++ {
		for it := 0; it < 10; it++ {
			x := th(v, it)
			if x < 1-4*eps || x >= 1-2*eps {
				t.Fatalf("threshold %v out of [%v,%v)", x, 1-4*eps, 1-2*eps)
			}
		}
	}
	if FixedThreshold(eps)(3, 7) != 1-3*eps {
		t.Fatal("fixed threshold wrong")
	}
	// Same (seed,v,t) must give the same threshold (coupling requirement).
	if th(5, 2) != RandomThresholds(5, eps)(5, 2) {
		t.Fatal("thresholds not pure")
	}
}

func TestInitPolicyString(t *testing.T) {
	if InitDegreeAware.String() != "degree-aware" || InitUniform.String() != "uniform" {
		t.Fatal("InitPolicy.String broken")
	}
	if InitPolicy(9).String() == "" {
		t.Fatal("unknown policy string empty")
	}
}

func TestDeriveX0Feasible(t *testing.T) {
	g := gen.ApplyWeights(gen.PreferentialAttachment(9, 200, 4), 4, gen.Exponential{Mean: 2})
	for _, policy := range []InitPolicy{InitDegreeAware, InitUniform} {
		x0, err := DeriveX0(g, policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.DualFeasible(g, x0); err != nil {
			t.Fatalf("%v: infeasible init: %v", policy, err)
		}
		for e, x := range x0 {
			if !(x > 0) {
				t.Fatalf("%v: x0[%d] = %v", policy, e, x)
			}
		}
	}
	if _, err := DeriveX0(g, InitPolicy(42)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
