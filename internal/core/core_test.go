package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// certify runs the full validity pipeline on a result: cover validity,
// rescaled dual feasibility, certified ratio within the theorem bound.
func certify(t *testing.T, g *graph.Graph, res *Result, eps float64) *verify.Certificate {
	t.Helper()
	scaled, alpha := res.FeasibleDual(g)
	cert, err := verify.NewCertificate(g, res.Cover, scaled)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 4.7 proves alpha ≤ 1+6ε w.h.p., but the w.h.p. constants only
	// close at asymptotic machine counts; at practical m the per-phase dual
	// over-growth can exceed it somewhat (observed ≤ ~1.9). The end-to-end
	// guarantee — certified ratio ≤ 2+30ε — is asserted exactly; alpha gets
	// a sanity cap and is tabulated by experiment E6.
	if alpha > 2.2 {
		t.Errorf("dual violation factor %v far beyond 1+6ε = %v", alpha, 1+6*eps)
	}
	if r := cert.Ratio(); r > 2+30*eps+1e-9 {
		t.Errorf("certified ratio %v exceeds 2+30ε = %v", r, 2+30*eps)
	}
	return cert
}

func TestRunSmallDense(t *testing.T) {
	eps := 0.1
	g := gen.ApplyWeights(gen.GnpAvgDegree(1, 2000, 64), 2, gen.UniformRange{Lo: 1, Hi: 100})
	res, err := Run(context.Background(), g, ParamsPractical(eps, 7))
	if err != nil {
		t.Fatal(err)
	}
	certify(t, g, res, eps)
	if res.Phases == 0 {
		t.Fatal("expected at least one sampled phase at d=64, n=2000")
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestRunUnitWeights(t *testing.T) {
	// Unit weights = the GGK+18 unweighted setting.
	eps := 0.1
	g := gen.GnpAvgDegree(3, 3000, 48)
	res, err := Run(context.Background(), g, ParamsPractical(eps, 5))
	if err != nil {
		t.Fatal(err)
	}
	certify(t, g, res, eps)
}

func TestRunHugeWeightRange(t *testing.T) {
	eps := 0.1
	g := gen.ApplyWeights(gen.GnpAvgDegree(4, 2000, 40), 9, gen.PowerLaw{MaxWeight: 1e9})
	res, err := Run(context.Background(), g, ParamsPractical(eps, 11))
	if err != nil {
		t.Fatal(err)
	}
	certify(t, g, res, eps)
}

func TestRunPowerLawGraph(t *testing.T) {
	eps := 0.1
	g := gen.ApplyWeights(gen.PreferentialAttachment(6, 3000, 16), 3, gen.Exponential{Mean: 5})
	res, err := Run(context.Background(), g, ParamsPractical(eps, 13))
	if err != nil {
		t.Fatal(err)
	}
	certify(t, g, res, eps)
}

func TestRunEmptyAndTiny(t *testing.T) {
	p := ParamsPractical(0.1, 1)
	empty := graph.NewBuilder(0).MustBuild()
	res, err := Run(context.Background(), empty, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cover) != 0 {
		t.Fatal("empty graph nonempty cover")
	}

	isolated := graph.NewBuilder(5).MustBuild()
	res, err = Run(context.Background(), isolated, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res.Cover {
		if in {
			t.Fatal("isolated vertex in cover")
		}
	}

	single, _ := graph.FromEdgeList(2, [][2]graph.Vertex{{0, 1}}, []float64{3, 5})
	res, err = Run(context.Background(), single, p)
	if err != nil {
		t.Fatal(err)
	}
	certify(t, single, res, 0.1)
	if !res.Cover[0] && !res.Cover[1] {
		t.Fatal("single edge uncovered")
	}
}

func TestRunParamsPaperDegenerates(t *testing.T) {
	// The literal paper constants make the switch-over hold immediately at
	// this scale: zero sampled phases, everything solved centrally.
	eps := 0.1
	g := gen.GnpAvgDegree(2, 500, 32)
	res, err := Run(context.Background(), g, ParamsPaper(eps, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != 0 {
		t.Fatalf("paper params ran %d sampled phases at n=500", res.Phases)
	}
	certify(t, g, res, eps)
}

func TestDeterminism(t *testing.T) {
	g := gen.ApplyWeights(gen.GnpAvgDegree(5, 1500, 50), 1, gen.UniformRange{Lo: 1, Hi: 10})
	p := ParamsPractical(0.1, 99)
	a, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Cover {
		if a.Cover[v] != b.Cover[v] {
			t.Fatalf("same seed, cover differs at %d", v)
		}
	}
	for e := range a.X {
		if a.X[e] != b.X[e] {
			t.Fatalf("same seed, duals differ at edge %d", e)
		}
	}
	if a.Rounds != b.Rounds || a.Phases != b.Phases {
		t.Fatal("same seed, different phase/round counts")
	}
}

func TestPhaseStatsConsistency(t *testing.T) {
	g := gen.GnpAvgDegree(8, 4000, 100)
	res, err := Run(context.Background(), g, ParamsPractical(0.1, 21))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhaseStats) != res.Phases {
		t.Fatalf("%d stats for %d phases", len(res.PhaseStats), res.Phases)
	}
	prevEdges := int64(g.NumEdges())
	for i, st := range res.PhaseStats {
		if st.Phase != i {
			t.Fatalf("phase index %d at position %d", st.Phase, i)
		}
		if st.EdgesBefore != prevEdges {
			t.Fatalf("phase %d: EdgesBefore %d, want %d", i, st.EdgesBefore, prevEdges)
		}
		if st.EdgesAfter > st.EdgesBefore {
			t.Fatalf("phase %d: edges increased", i)
		}
		if st.NumHigh+st.NumInactive > st.NumNonfrozen {
			t.Fatalf("phase %d: high+inactive exceeds nonfrozen", i)
		}
		if st.Machines < 1 || st.Iterations < 1 {
			t.Fatalf("phase %d: machines=%d iterations=%d", i, st.Machines, st.Iterations)
		}
		wantM := int(math.Round(math.Sqrt(st.AvgDegree)))
		if st.Machines != wantM {
			t.Fatalf("phase %d: machines %d, want √d = %d", i, st.Machines, wantM)
		}
		prevEdges = st.EdgesAfter
	}
	if res.FinalPhaseEdges != prevEdges {
		t.Fatalf("final phase edges %d, want %d", res.FinalPhaseEdges, prevEdges)
	}
}

func TestDegreeDecayBound(t *testing.T) {
	// Lemma 4.4: after each phase, nonfrozen edges ≤ n·d·(1−ε)^I + n·d^γ
	// (the two-term form its proof establishes; see PhaseStat.DecayBound).
	g := gen.GnpAvgDegree(12, 4000, 128)
	res, err := Run(context.Background(), g, ParamsPractical(0.1, 33))
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases == 0 {
		t.Fatal("no phases executed")
	}
	for _, st := range res.PhaseStats {
		if float64(st.EdgesAfter) > st.DecayBound {
			t.Errorf("phase %d: %d edges remain, Lemma 4.4 bound %.0f", st.Phase, st.EdgesAfter, st.DecayBound)
		}
	}
}

func TestMachineMemoryWithinBudget(t *testing.T) {
	// Lemma 4.1: |E[V_i]| = O(n). The substrate would error if the charge
	// exceeded S; here we also check the measured maximum explicitly.
	g := gen.GnpAvgDegree(13, 2000, 80)
	p := ParamsPractical(0.1, 17)
	res, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	budget := p.MemoryWords(g.NumVertices())
	for _, st := range res.PhaseStats {
		if st.MaxMachineWords > budget {
			t.Fatalf("phase %d: machine used %d words, budget %d", st.Phase, st.MaxMachineWords, budget)
		}
		if int64(st.MaxMachineEdges)*3 > budget {
			t.Fatalf("phase %d: %d local edges cannot fit budget", st.Phase, st.MaxMachineEdges)
		}
	}
}

func TestCoverTightness(t *testing.T) {
	// Theorem 4.7's other half: cover vertices have Σx ≥ (1−16ε)·w(v).
	eps := 0.1
	g := gen.ApplyWeights(gen.GnpAvgDegree(14, 2000, 60), 4, gen.UniformRange{Lo: 1, Hi: 20})
	res, err := Run(context.Background(), g, ParamsPractical(eps, 8))
	if err != nil {
		t.Fatal(err)
	}
	if tight := res.CoverTightness(g); tight < 1-16*eps-1e-9 {
		t.Fatalf("cover tightness %v below 1−16ε = %v", tight, 1-16*eps)
	}
}

func TestValidateParams(t *testing.T) {
	good := ParamsPractical(0.1, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Params){
		func(p *Params) { p.Epsilon = 0 },
		func(p *Params) { p.Epsilon = 0.2 },
		func(p *Params) { p.HighDegreeExponent = 0 },
		func(p *Params) { p.HighDegreeExponent = 1 },
		func(p *Params) { p.BiasCoefficient = -1 },
		func(p *Params) { p.BiasGrowth = 0.5 },
		func(p *Params) { p.SwitchThreshold = nil },
		func(p *Params) { p.PhaseIterations = nil },
		func(p *Params) { p.NumMachines = nil },
		func(p *Params) { p.MemoryWords = nil },
	}
	for i, mutate := range cases {
		p := ParamsPractical(0.1, 1)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
	if _, err := Run(context.Background(), nil, good); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestAblationsStillProduceCovers(t *testing.T) {
	eps := 0.1
	g := gen.ApplyWeights(gen.GnpAvgDegree(15, 1500, 48), 6, gen.UniformRange{Lo: 1, Hi: 10})
	mutations := map[string]func(*Params){
		"no-bias":      func(p *Params) { p.BiasCoefficient = 0 },
		"no-split":     func(p *Params) { p.DisableInactiveSplit = true },
		"fixed-thresh": func(p *Params) { p.FixedThresholds = true },
		"uniform-init": func(p *Params) { p.UniformInit = true },
		"all-ablations": func(p *Params) {
			p.BiasCoefficient = 0
			p.DisableInactiveSplit = true
			p.FixedThresholds = true
			p.UniformInit = true
		},
	}
	for name, mutate := range mutations {
		p := ParamsPractical(eps, 31)
		mutate(&p)
		res, err := Run(context.Background(), g, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok, e := verify.IsCover(g, res.Cover); !ok {
			t.Fatalf("%s: edge %d uncovered", name, e)
		}
		// Ablations may lose the 6ε guarantee, but the rescaled certificate
		// must still be valid and the ratio finite.
		scaled, _ := res.FeasibleDual(g)
		cert, err := verify.NewCertificate(g, res.Cover, scaled)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.IsInf(cert.Ratio(), 1) {
			t.Fatalf("%s: infinite ratio", name)
		}
	}
}

func TestCouplingDeviationsWithinBound(t *testing.T) {
	eps := 0.1
	g := gen.ApplyWeights(gen.GnpAvgDegree(16, 3000, 80), 7, gen.UniformRange{Lo: 1, Hi: 10})
	p := ParamsPractical(eps, 12)
	p.CollectCoupling = true
	res, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Coupling) != res.Phases {
		t.Fatalf("%d coupling captures for %d phases", len(res.Coupling), res.Phases)
	}
	if res.Phases == 0 {
		t.Fatal("no phases to couple")
	}
	for _, cp := range res.Coupling {
		rep, err := AnalyzeCoupling(cp, p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Vertices != len(cp.High) || rep.Edges != len(cp.Edges) {
			t.Fatalf("phase %d: report sizes inconsistent", cp.Phase)
		}
		// The lemma's 6ε bound is asymptotic (it needs m ≥ (4/ε)^10
		// machines before the concentration slack closes); at m ≈ √80 ≈ 9
		// the per-vertex sampling noise is ~m^{-1/2}, so the checkable
		// property here is boundedness at the practical scale. Experiment
		// E6 tabulates how the deviations shrink as m grows.
		if rep.MaxDevEstimate > 2.5 {
			t.Errorf("phase %d: estimator deviation %v unexpectedly large", cp.Phase, rep.MaxDevEstimate)
		}
		if rep.MaxDevY > 2.5 {
			t.Errorf("phase %d: |y−y^MPC| deviation %v unexpectedly large", cp.Phase, rep.MaxDevY)
		}
		if rep.BadVertices > rep.Vertices/2 {
			t.Errorf("phase %d: %d/%d bad vertices", cp.Phase, rep.BadVertices, rep.Vertices)
		}
		if math.Abs(rep.Bound-6*eps) > 1e-12 {
			t.Errorf("phase %d: bound %v, want 6ε", cp.Phase, rep.Bound)
		}
	}
}

func TestFeasibleDualScaling(t *testing.T) {
	g := gen.GnpAvgDegree(17, 800, 40)
	res, err := Run(context.Background(), g, ParamsPractical(0.1, 2))
	if err != nil {
		t.Fatal(err)
	}
	scaled, alpha := res.FeasibleDual(g)
	if alpha < 1 {
		t.Fatalf("alpha %v < 1", alpha)
	}
	if err := verify.DualFeasible(g, scaled); err != nil {
		t.Fatalf("scaled duals infeasible: %v", err)
	}
	for e := range scaled {
		if math.Abs(scaled[e]*alpha-res.X[e]) > 1e-9*math.Max(1, res.X[e]) {
			t.Fatal("scaling inconsistent")
		}
	}
	// Outcome scales X in place to the same bits.
	out := res.Outcome(g)
	for e := range scaled {
		if math.Float64bits(out.Duals[e]) != math.Float64bits(scaled[e]) {
			t.Fatalf("edge %d: Outcome dual %v, FeasibleDual %v", e, out.Duals[e], scaled[e])
		}
	}
	if out.Rounds != res.Rounds || out.Phases != res.Phases || &out.Cover[0] != &res.Cover[0] {
		t.Fatal("Outcome does not carry the result's cover and counts")
	}
}

func TestRoundsGrowSlowlyWithDegree(t *testing.T) {
	// The headline claim (E1 in miniature): phases grow like log log d, so
	// going from d=32 to d=1024 (²⁵ times denser) should add only a few
	// phases.
	p := ParamsPractical(0.1, 4)
	phasesAt := func(d float64) int {
		g := gen.GnpAvgDegree(19, 3000, d)
		res, err := Run(context.Background(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Phases
	}
	p32, p1024 := phasesAt(32), phasesAt(1024)
	if p1024 < p32 {
		t.Fatalf("phases decreased with density: %d vs %d", p32, p1024)
	}
	if p1024 > p32+6 {
		t.Fatalf("phases grew too fast: %d at d=32, %d at d=1024", p32, p1024)
	}
}

// TestRunAllocationPerEdge pins what one solve allocates per input edge on
// a dense graph, where E[V^high] is every edge. The result's duals and the
// frozen flags take 9 bytes of it; the rest is the machines' classes and
// messages and the final phase's residual instance. An m-sized scratch
// array of 4-byte entries or wider puts it over the pin.
func TestRunAllocationPerEdge(t *testing.T) {
	g := gen.ApplyWeights(gen.GnpAvgDegree(1, 2000, 200), 1, gen.UniformRange{Lo: 1, Hi: 100})
	p := ParamsPractical(0.1, 1)
	p.Parallelism = 1
	if _, err := Run(context.Background(), g, p); err != nil { // warm-up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(context.Background(), g, p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumEdges())
	if perEdge > 21 {
		t.Fatalf("Run allocates %.1f bytes per edge on %d edges, want at most 21", perEdge, g.NumEdges())
	}
	t.Logf("Run allocates %.1f bytes per edge", perEdge)
}
