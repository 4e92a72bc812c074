package graph

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func mustTriangle(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdgeList(3, [][2]Vertex{{0, 1}, {1, 2}, {0, 2}}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.AverageDegree() != 0 {
		t.Fatalf("empty graph average degree %v", g.AverageDegree())
	}
	if g.MaxDegree() != 0 {
		t.Fatalf("empty graph max degree %v", g.MaxDegree())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := NewBuilder(5).MustBuild()
	if g.NumVertices() != 5 || g.NumEdges() != 0 {
		t.Fatalf("got n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	for v := Vertex(0); v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Fatalf("vertex %d degree %d", v, g.Degree(v))
		}
		if g.Weight(v) != 1 {
			t.Fatalf("default weight %v", g.Weight(v))
		}
	}
}

func TestTriangleBasics(t *testing.T) {
	g := mustTriangle(t)
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("triangle n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	for v := Vertex(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("vertex %d degree %d", v, g.Degree(v))
		}
	}
	if g.TotalWeight() != 6 {
		t.Fatalf("total weight %v", g.TotalWeight())
	}
	if g.AverageDegree() != 2 {
		t.Fatalf("average degree %v", g.AverageDegree())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateEdgesMerged(t *testing.T) {
	g, err := FromEdgeList(3, [][2]Vertex{{0, 1}, {1, 0}, {0, 1}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("got %d edges, want 2", g.NumEdges())
	}
}

func TestSelfLoopRejected(t *testing.T) {
	_, err := FromEdgeList(2, [][2]Vertex{{1, 1}}, nil)
	if err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestOutOfRangeEndpointRejected(t *testing.T) {
	if _, err := FromEdgeList(2, [][2]Vertex{{0, 2}}, nil); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if _, err := FromEdgeList(2, [][2]Vertex{{-1, 0}}, nil); err == nil {
		t.Fatal("negative endpoint accepted")
	}
}

func TestNonPositiveWeightRejected(t *testing.T) {
	b := NewBuilder(2)
	b.SetWeight(0, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("zero weight accepted")
	}
	b2 := NewBuilder(2)
	b2.SetWeight(1, -3)
	if _, err := b2.Build(); err == nil {
		t.Fatal("negative weight accepted")
	}
	b3 := NewBuilder(1)
	b3.SetWeight(0, math.NaN())
	if _, err := b3.Build(); err == nil {
		t.Fatal("NaN weight accepted")
	}
}

func TestHasEdgeAndEdgeBetween(t *testing.T) {
	g := mustTriangle(t)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(1, 2) || !g.HasEdge(0, 2) {
		t.Fatal("missing triangle edges")
	}
	star, err := FromEdgeList(4, [][2]Vertex{{0, 1}, {0, 2}, {0, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if star.HasEdge(1, 2) {
		t.Fatal("HasEdge(1,2) true on star")
	}
	e := star.EdgeBetween(0, 3)
	if e < 0 {
		t.Fatal("EdgeBetween(0,3) not found")
	}
	u, v := star.Edge(e)
	if u != 0 || v != 3 {
		t.Fatalf("edge %d endpoints (%d,%d)", e, u, v)
	}
	if star.EdgeBetween(1, 2) != -1 {
		t.Fatal("EdgeBetween(1,2) found on star")
	}
}

func TestOther(t *testing.T) {
	g := mustTriangle(t)
	e := g.EdgeBetween(1, 2)
	if g.Other(e, 1) != 2 || g.Other(e, 2) != 1 {
		t.Fatal("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	g.Other(e, 0)
}

func TestSlotAlignment(t *testing.T) {
	g := mustTriangle(t)
	for v := Vertex(0); v < 3; v++ {
		nbrs := g.Neighbors(v)
		ids := g.IncidentEdges(v)
		if len(nbrs) != len(ids) {
			t.Fatalf("vertex %d slot mismatch", v)
		}
		for i := range nbrs {
			a, b := g.Edge(ids[i])
			if !(a == v && b == nbrs[i]) && !(b == v && a == nbrs[i]) {
				t.Fatalf("vertex %d slot %d: edge %d=(%d,%d) vs neighbor %d", v, i, ids[i], a, b, nbrs[i])
			}
		}
	}
}

func TestInduced(t *testing.T) {
	// Path 0-1-2-3 plus chord 0-2.
	g, err := FromEdgeList(4, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}, {0, 2}}, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	sub, orig, err := g.Induced([]Vertex{2, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 3 {
		t.Fatalf("induced n=%d", sub.NumVertices())
	}
	// Surviving edges: (0,2) and (2,3) → 2 edges.
	if sub.NumEdges() != 2 {
		t.Fatalf("induced m=%d, want 2", sub.NumEdges())
	}
	if orig[0] != 2 || orig[1] != 0 || orig[2] != 3 {
		t.Fatalf("orig mapping %v", orig)
	}
	if sub.Weight(0) != 3 || sub.Weight(1) != 1 || sub.Weight(2) != 4 {
		t.Fatal("induced weights not carried over")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInducedRejectsDuplicates(t *testing.T) {
	g := mustTriangle(t)
	if _, _, err := g.Induced([]Vertex{0, 0}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, _, err := g.Induced([]Vertex{0, 5}); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestInducedScratchReuseKeepsResultsIndependent(t *testing.T) {
	// Back-to-back Induced calls share the pooled index scratch; results
	// must be independent and the scratch reset between calls (a stale
	// entry would leak an edge or a false duplicate into the second call).
	g := randomGraph(11, 300, 3000)
	vs1 := []Vertex{5, 10, 15, 20, 25, 30}
	vs2 := []Vertex{5, 11, 16, 21, 26, 31} // overlaps vs1 at vertex 5
	sub1a, _, err := g.Induced(vs1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Induced(vs2); err != nil {
		t.Fatal(err)
	}
	sub1b, _, err := g.Induced(vs1)
	if err != nil {
		t.Fatal(err)
	}
	if sub1a.NumEdges() != sub1b.NumEdges() || sub1a.String() != sub1b.String() {
		t.Fatalf("induced subgraph changed across pooled calls: %v vs %v", sub1a, sub1b)
	}
	if err := sub1b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Error paths must reset the scratch too.
	if _, _, err := g.Induced([]Vertex{1, 2, 1}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, _, err := g.Induced([]Vertex{1, 2, Vertex(g.NumVertices())}); err == nil {
		t.Fatal("out-of-range accepted")
	}
	sub1c, _, err := g.Induced(vs1)
	if err != nil {
		t.Fatal(err)
	}
	if sub1c.NumEdges() != sub1a.NumEdges() {
		t.Fatalf("scratch corrupted by error path: %v vs %v", sub1c, sub1a)
	}
}

// BenchmarkInduced measures the per-call cost of Induced; the pooled index
// scratch removes the per-call map that used to dominate allocations.
func BenchmarkInduced(b *testing.B) {
	g := randomGraph(3, 20000, 200000)
	vertices := make([]Vertex, 0, 2000)
	for v := 0; v < 20000; v += 10 {
		vertices = append(vertices, Vertex(v))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Induced(vertices); err != nil {
			b.Fatal(err)
		}
	}
}

// randomGraph builds a random graph for property tests.
func randomGraph(seed uint64, n, m int) *Graph {
	src := rng.New(seed)
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetWeight(Vertex(v), 0.1+10*src.Float64())
	}
	for i := 0; i < m; i++ {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			b.AddEdge(Vertex(u), Vertex(v))
		}
	}
	return b.MustBuild()
}

func TestRandomGraphInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 2+int(seed%60), int(seed%300))
		if err := g.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		// Degree sum equals 2m.
		sum := 0
		for v := 0; v < g.NumVertices(); v++ {
			sum += g.Degree(Vertex(v))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeIDsCoverAllEdges(t *testing.T) {
	g := randomGraph(17, 40, 200)
	seen := make([]int, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.IncidentEdges(Vertex(v)) {
			seen[e]++
		}
	}
	for e, c := range seen {
		if c != 2 {
			t.Fatalf("edge %d appears in %d adjacency slots, want 2", e, c)
		}
	}
}
