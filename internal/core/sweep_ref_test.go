package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The home machines used to find their own edges by striding through the
// edge ids: home id took edges id, id+fleet, … once in the aggregate round
// (the nonfrozen count) and once in the scatter round (the count report and
// the co-located E[V^high] edges). The Line 2c sweep in partition now does
// both for every home at once. The two strided scans are kept below as
// they were in the rounds, as the reference the sweep must reproduce.

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

// onPartition installs fn as the partition hook for the rest of the test.
func onPartition(t *testing.T, fn func(*driver)) {
	t.Helper()
	partitioned = fn
	t.Cleanup(func() { partitioned = nil })
}

// TestSweepMatchesStride checks every phase of several runs, under both
// schedules and through the split and fallback paths: each home's list holds
// the ids the strided scan finds, in the same order, and its recount equals
// the strided counts. Equal lists make the scatter's messages word for word
// the strided ones; only the order would otherwise show, as last bits of
// local float sums.
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
			phases := 0
			onPartition(t, func(d *driver) {
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
			if phases < c.minPhases {
				t.Fatalf("checked %d phases, want at least %d", phases, c.minPhases)
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
	onPartition(t, func(d *driver) { d.homeCount[d.fleet-1]++ })
	p := ParamsPractical(0.1, 1)
	if _, err := Run(context.Background(), g, p); err == nil || !strings.Contains(err.Error(), "aggregated") {
		t.Fatalf("native: err %v, want the aggregated-count mismatch", err)
	}
	if _, _, err := RunGathered(context.Background(), g, p, nil); err == nil || !strings.Contains(err.Error(), "aggregated") {
		t.Fatalf("gathered: err %v, want the aggregated-count mismatch", err)
	}
}
