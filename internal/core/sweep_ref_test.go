package core

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Two references live here, each a former form of the phase driver kept as
// the oracle its replacement must reproduce bit for bit.
//
// The home machines used to find their own edges by striding through the
// edge ids: home id took edges id, id+fleet, … once in the aggregate round
// (the nonfrozen count) and once in the scatter round (the count report and
// the co-located E[V^high] edges). The edge sweep in partition now does
// both for every home at once. The two strided scans are kept below as
// they were in the rounds.
//
// Lines 2h–2k used to run as two sweeps over a stored list of E[V^high]
// ids, with every Line 2c dual written into res.X by the partition sweep
// and the per-vertex sums kept in an n-sized array. reconcile now computes
// the duals where it reads them, gathers the Line 2i sum and the w′
// bookkeeping from rows, and freezes in one pass over the rows' upper
// parts. refReconcile keeps the two-sweep form.

// stridedAggregate is the aggregate round's count: home id's nonfrozen
// edges.
func stridedAggregate(d *driver, id int) uint64 {
	cnt := uint64(0)
	for e := id; e < d.m; e += d.fleet {
		if !d.edgeFrozen[e] {
			cnt++
		}
	}
	return cnt
}

// stridedScatter is the scatter round's edge scan: home id's nonfrozen
// count, its co-located E[V^high] edges in the order the stride meets them,
// and the edge records per destination.
func stridedScatter(d *driver, id int) (edgeIDs []int32, home uint64, eCnt []int32) {
	eCnt = make([]int32, d.parts)
	for e := id; e < d.m; e += d.fleet {
		if d.edgeFrozen[e] {
			continue
		}
		home++
		u, v := d.ep[2*e], d.ep[2*e+1]
		if d.high[u] && d.high[v] && d.partOf[u] == d.partOf[v] {
			eCnt[d.partOf[u]]++
			edgeIDs = append(edgeIDs, int32(e))
		}
	}
	return edgeIDs, home, eCnt
}

// sweepGraph is a dense core plus a medium-degree fringe, which takes two
// sampled phases.
func sweepGraph() *graph.Graph {
	a := gen.GnpAvgDegree(10, 1000, 400)
	fringe := gen.GnpAvgDegree(11, 2000, 40)
	b := graph.NewBuilder(3000)
	for e := 0; e < a.NumEdges(); e++ {
		b.AddEdge(a.Edge(graph.EdgeID(e)))
	}
	for e := 0; e < fringe.NumEdges(); e++ {
		u, v := fringe.Edge(graph.EdgeID(e))
		b.AddEdge(u+1000, v+1000)
	}
	return gen.ApplyWeights(b.MustBuild(), 10, gen.UniformRange{Lo: 1, Hi: 100})
}

// refReconcile is the two-sweep reconcile, with the Line 2c sweep's part
// that fed it: it lists E[V^high] in id order and writes each edge's Line 2c
// dual into res.X, then scales them in place (Line 2h) while summing y, and
// finalizes in a second walk. It returns the freeze counts and y.
func refReconcile(d *driver) (frozenAtSim, frozenAt2i int, y []float64) {
	x, ep := d.res.X, d.ep
	uniformBase := 0.0
	if d.p.UniformInit {
		wmin := math.Inf(1)
		for _, v := range d.highList {
			wmin = math.Min(wmin, d.wres[v])
		}
		uniformBase = wmin / float64(d.n)
	}
	var highEdges []int32
	for e := 0; e < d.m; e++ {
		if u, v := ep[2*e], ep[2*e+1]; !d.edgeFrozen[e] && d.high[u] && d.high[v] {
			highEdges = append(highEdges, int32(e))
			if d.p.UniformInit {
				x[e] = uniformBase
			} else {
				x[e] = min(d.wres[u]/float64(d.resDeg[u]), d.wres[v]/float64(d.resDeg[v]))
			}
		}
	}

	pow := make([]float64, d.iters+1)
	pow[0] = 1
	growth := 1 / (1 - d.p.Epsilon)
	for t := 1; t <= d.iters; t++ {
		pow[t] = pow[t-1] * growth
	}
	f, y := make([]float64, d.n), make([]float64, d.n)
	for _, v := range d.highList {
		t := d.iters
		if fi := d.freezeIter[v]; fi >= 0 {
			t = int(fi)
		}
		f[v] = pow[t]
	}
	for _, e := range highEdges {
		u, v := ep[2*e], ep[2*e+1]
		xe := x[e] * min(f[u], f[v])
		x[e] = xe
		y[u] += xe
		y[v] += xe
	}

	var newlyFrozen []graph.Vertex
	for _, v := range d.highList {
		if d.freezeIter[v] >= 0 {
			newlyFrozen = append(newlyFrozen, v)
		}
	}
	frozenAtSim = len(newlyFrozen)
	for _, v := range d.highList {
		if d.freezeIter[v] < 0 && y[v] >= d.wres[v]*(1-1e-12) {
			newlyFrozen = append(newlyFrozen, v)
		}
	}
	frozenAt2i = len(newlyFrozen) - frozenAtSim
	cover := d.res.Cover
	for _, v := range newlyFrozen {
		cover[v] = true
	}
	for _, e := range highEdges {
		u, v := ep[2*e], ep[2*e+1]
		if !cover[u] && !cover[v] {
			x[e] = 0
			continue
		}
		xe := x[e]
		d.edgeFrozen[e] = true
		d.resDeg[u]--
		d.resDeg[v]--
		d.nonfrozen--
		d.frozenIncident[u] += xe
		d.frozenIncident[v] += xe
		d.dualSum += xe
	}
	for _, v := range newlyFrozen {
		d.freezeVertex(v)
	}
	return frozenAtSim, frozenAt2i, y
}

// cloneDriver returns a copy of d that a reconcile can run on without
// touching d: the result's cover and duals, the freeze bookkeeping and
// reconcile's scratch are its own.
func cloneDriver(d *driver) *driver {
	st := *d.state
	st.res = &Result{Cover: slices.Clone(d.res.Cover), X: slices.Clone(d.res.X)}
	st.edgeFrozen = slices.Clone(d.edgeFrozen)
	st.frozenIncident = slices.Clone(d.frozenIncident)
	st.resDeg = slices.Clone(d.resDeg)
	c := *d
	c.state = &st
	c.factor = make([]float64, d.n)
	c.newlyFrozen, c.pow = nil, nil
	return &c
}

// checkPositiveZero fails unless res.X is +0 on every nonfrozen edge.
func checkPositiveZero(t *testing.T, d *driver, when string) {
	t.Helper()
	for e, frozen := range d.edgeFrozen {
		if !frozen && math.Float64bits(d.res.X[e]) != 0 {
			t.Fatalf("phase %d %s: nonfrozen edge %d holds x = %v", d.phase, when, e, d.res.X[e])
		}
	}
}

// checkReconcile runs reconcile and refReconcile on two copies of d, taken
// after the collect round, and requires the same duals, cover, freeze
// bookkeeping, dual total, w′ outside the cover and Line 2i sums, bit for
// bit.
func checkReconcile(t *testing.T, d *driver) {
	t.Helper()
	checkPositiveZero(t, d, "start")
	got, want := cloneDriver(d), cloneDriver(d)
	gotSim, got2i := got.reconcile()
	wantSim, want2i, y := refReconcile(want)
	if gotSim != wantSim || got2i != want2i {
		t.Fatalf("phase %d: froze %d in the simulation and %d at Line 2i, reference %d and %d", d.phase, gotSim, got2i, wantSim, want2i)
	}
	for _, v := range d.highList {
		if d.freezeIter[v] < 0 {
			if g, w := got.highSum(v), y[v]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("phase %d: Line 2i sum at vertex %d is %v, reference %v", d.phase, v, g, w)
			}
		}
	}
	for e := range d.m {
		if g, w := got.res.X[e], want.res.X[e]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("phase %d: x[%d] = %v, reference %v", d.phase, e, g, w)
		}
	}
	if !slices.Equal(got.res.Cover, want.res.Cover) || !slices.Equal(got.edgeFrozen, want.edgeFrozen) {
		t.Fatalf("phase %d: cover or frozen edges differ from the reference", d.phase)
	}
	if !slices.Equal(got.resDeg, want.resDeg) || got.nonfrozen != want.nonfrozen {
		t.Fatalf("phase %d: residual degrees or nonfrozen count (%d, reference %d) differ", d.phase, got.nonfrozen, want.nonfrozen)
	}
	if math.Float64bits(got.dualSum) != math.Float64bits(want.dualSum) {
		t.Fatalf("phase %d: dual total %v, reference %v", d.phase, got.dualSum, want.dualSum)
	}
	for v, in := range got.res.Cover {
		if g, w := got.frozenIncident[v], want.frozenIncident[v]; !in && math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("phase %d: vertex %d outside the cover has frozen incident weight %v, reference %v", d.phase, v, g, w)
		}
	}
	checkPositiveZero(t, got, "end")
}

// setHook installs fn in the driver hook *at for the rest of the test.
func setHook(t *testing.T, at *func(*driver), fn func(*driver)) {
	t.Helper()
	*at = fn
	t.Cleanup(func() { *at = nil })
}

// TestSweepMatchesStride checks every phase of several runs, under both
// schedules and through the split and fallback paths. After the partition,
// each home's list holds the ids the strided scan finds, in the same order,
// and its recount equals the strided counts. Equal lists make the scatter's
// messages word for word the strided ones; only the order would otherwise
// show, as last bits of local float sums. After the collect round, reconcile
// must reproduce refReconcile bit for bit (checkReconcile). The order of
// its row gathers shows only in last bits too: a reversed row moves no
// freeze on the golden inputs.
func TestSweepMatchesStride(t *testing.T) {
	bimodal := sweepGraph()
	gnp := gen.ApplyWeights(gen.GnpAvgDegree(17, 800, 40), 17, gen.UniformRange{Lo: 1, Hi: 100})
	small := func(p *Params) { p.MemoryWords = func(int) int64 { return 60000 } }
	cases := []struct {
		name      string
		g         *graph.Graph
		seed      uint64
		gathered  bool
		gather    int64 // gather budget in words; 0 keeps MemoryWords/2
		mutate    func(*Params)
		splits    bool // the run must split at least once
		fallback  bool // the run must fall back to the native schedule
		minPhases int
	}{
		{name: "gnp/native", g: gnp, seed: 2, minPhases: 1},
		{name: "gnp/gathered", g: gnp, seed: 2, gathered: true, minPhases: 1},
		{name: "bimodal/native", g: bimodal, seed: 1, minPhases: 2},
		{name: "bimodal/gathered", g: bimodal, seed: 1, gathered: true, minPhases: 2},
		{name: "bimodal/uniform-init", g: bimodal, seed: 1, mutate: func(p *Params) {
			p.UniformInit = true
			p.MemoryWords = func(int) int64 { return 1 << 24 }
		}, minPhases: 1},
		{name: "bimodal/split-1", g: bimodal, seed: 1, gathered: true, gather: 2000, mutate: small, splits: true, minPhases: 2},
		{name: "bimodal/split-2", g: bimodal, seed: 2, gathered: true, gather: 2000, mutate: small, splits: true, minPhases: 2},
		{name: "bimodal/fallback", g: bimodal, seed: 1, gathered: true, gather: 1, mutate: small, fallback: true, minPhases: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			phases, reconciled := 0, 0
			setHook(t, &collected, func(d *driver) {
				reconciled++
				checkReconcile(t, d)
			})
			setHook(t, &partitioned, func(d *driver) {
				phases++
				listed := 0
				for id := 0; id < d.fleet; id++ {
					want, home, eCnt := stridedScatter(d, id)
					if got := d.scratch[id].edgeIDs; !slices.Equal(got, want) {
						i := 0
						for i < min(len(got), len(want)) && got[i] == want[i] {
							i++
						}
						t.Fatalf("phase %d home %d: list of %d and stride of %d edges differ at position %d", d.phase, id, len(got), len(want), i)
					}
					if got := uint64(d.homeCount[id]); got != home || got != stridedAggregate(d, id) {
						t.Fatalf("phase %d home %d: recount %d, strided %d", d.phase, id, got, home)
					}
					for _, e := range d.scratch[id].edgeIDs {
						eCnt[d.partOf[d.ep[2*e]]]--
					}
					if slices.ContainsFunc(eCnt, func(c int32) bool { return c != 0 }) {
						t.Fatalf("phase %d home %d: per-destination counts differ by %v", d.phase, id, eCnt)
					}
					listed += len(d.scratch[id].edgeIDs)
				}
				if listed == 0 {
					t.Fatalf("phase %d: no co-located edges to compare", d.phase)
				}
			})
			p := ParamsPractical(0.1, c.seed)
			if c.mutate != nil {
				c.mutate(&p)
			}
			var gs GatherStats
			var err error
			if c.gathered {
				var words func(int) int64
				if c.gather > 0 {
					words = func(int) int64 { return c.gather }
				}
				_, gs, err = RunGathered(context.Background(), c.g, p, words)
			} else {
				_, err = Run(context.Background(), c.g, p)
			}
			if err != nil {
				t.Fatal(err)
			}
			if phases < c.minPhases || reconciled != phases {
				t.Fatalf("checked %d partitions and %d reconciles, want at least %d of each", phases, reconciled, c.minPhases)
			}
			if (gs.Splits > 0) != (c.splits || c.fallback) || gs.Fallback != c.fallback {
				t.Fatalf("splits %d, fallback %v; want splits %v, fallback %v", gs.Splits, gs.Fallback, c.splits || c.fallback, c.fallback)
			}
		})
	}
}

// TestCheckCountCatchesDesync moves one home's recount off by one after the
// sweep. Machine 0 compares the reported total with d.nonfrozen, which
// freezeEdge maintains apart from the recount, so both schedules must fail
// the phase.
func TestCheckCountCatchesDesync(t *testing.T) {
	g := gen.ApplyWeights(gen.GnpAvgDegree(17, 800, 40), 17, gen.UniformRange{Lo: 1, Hi: 100})
	setHook(t, &partitioned, func(d *driver) { d.homeCount[d.fleet-1]++ })
	p := ParamsPractical(0.1, 1)
	if _, err := Run(context.Background(), g, p); err == nil || !strings.Contains(err.Error(), "aggregated") {
		t.Fatalf("native: err %v, want the aggregated-count mismatch", err)
	}
	if _, _, err := RunGathered(context.Background(), g, p, nil); err == nil || !strings.Contains(err.Error(), "aggregated") {
		t.Fatalf("gathered: err %v, want the aggregated-count mismatch", err)
	}
}
