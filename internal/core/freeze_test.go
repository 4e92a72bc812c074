package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestFreezeBookkeepingMatchesRecount drives the phase driver's freeze helpers
// directly: a whole solve reaches the exhausted-residual freeze only
// through float drift. After freezing edges, a vertex, and a vertex whose
// residual weight is used up, the maintained residual degrees and nonfrozen
// count must equal a recount from edgeFrozen.
func TestFreezeBookkeepingMatchesRecount(t *testing.T) {
	g := gen.GnpAvgDegree(3, 40, 6)
	n, m := g.NumVertices(), g.NumEdges()
	d := &state{
		g: g, n: n, m: m, ep: g.EdgeEndpoints(),
		res:            &Result{Cover: make([]bool, n), X: make([]float64, m)},
		edgeFrozen:     make([]bool, m),
		frozenIncident: make([]float64, n),
		resDeg:         degrees(g),
		nonfrozen:      int64(m),
	}
	check := func(when string) {
		t.Helper()
		deg := make([]int, n)
		count := int64(0)
		for e := 0; e < m; e++ {
			if !d.edgeFrozen[e] {
				deg[d.ep[2*e]]++
				deg[d.ep[2*e+1]]++
				count++
			}
		}
		if count != d.nonfrozen {
			t.Fatalf("%s: nonfrozen %d, recount %d", when, d.nonfrozen, count)
		}
		for v := range deg {
			if deg[v] != d.resDeg[v] {
				t.Fatalf("%s: resDeg[%d] = %d, recount %d", when, v, d.resDeg[v], deg[v])
			}
		}
	}

	d.freezeEdge(0, 0.5)
	d.freezeEdge(1, 0.25)
	check("after edge freezes")

	u := d.ep[0]
	d.freezeVertex(u)
	check("after a vertex freeze")
	if d.resDeg[u] != 0 || !d.res.Cover[u] {
		t.Fatalf("frozen vertex %d kept degree %d", u, d.resDeg[u])
	}
	d.freezeVertex(u) // its adjacency is exhausted: a no-op
	check("after refreezing")

	// Exhaust a vertex's residual weight: residual must freeze it and its
	// edges at 0 (the Lines 2a/2b guard).
	v := graph.Vertex(n - 1)
	for d.resDeg[v] == 0 || d.res.Cover[v] {
		v--
	}
	d.frozenIncident[v] = g.Weight(v)
	if _, ok := d.residual(v); ok {
		t.Fatalf("vertex %d with exhausted weight kept a residual", v)
	}
	check("after the zero freeze")
	if !d.res.Cover[v] || d.resDeg[v] != 0 {
		t.Fatalf("zero-frozen vertex %d: cover %v, degree %d", v, d.res.Cover[v], d.resDeg[v])
	}
	for _, e := range g.IncidentEdges(v) {
		if !d.edgeFrozen[e] {
			t.Fatalf("edge %d of zero-frozen vertex %d still nonfrozen", e, v)
		}
	}
}
