package verify

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

func triangle(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdgeList(3, [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestIsCover(t *testing.T) {
	g := triangle(t)
	if ok, _ := IsCover(g, []bool{true, true, false}); !ok {
		t.Fatal("{0,1} should cover the triangle")
	}
	ok, e := IsCover(g, []bool{true, false, false})
	if ok {
		t.Fatal("{0} covers the triangle?")
	}
	u, v := g.Edge(e)
	if u != 1 || v != 2 {
		t.Fatalf("witness edge (%d,%d), want (1,2)", u, v)
	}
	if ok, _ := IsCover(g, []bool{false, false, false}); ok {
		t.Fatal("empty set covers the triangle?")
	}
}

func TestIsCoverEdgeless(t *testing.T) {
	g := graph.NewBuilder(4).MustBuild()
	if ok, _ := IsCover(g, make([]bool, 4)); !ok {
		t.Fatal("empty set should cover the edgeless graph")
	}
}

func TestCoverWeight(t *testing.T) {
	g := triangle(t)
	if w := CoverWeight(g, []bool{true, false, true}); w != 4 {
		t.Fatalf("cover weight %v, want 4", w)
	}
	if w := CoverWeight(g, []bool{false, false, false}); w != 0 {
		t.Fatalf("empty cover weight %v", w)
	}
}

func TestDualFeasible(t *testing.T) {
	g := triangle(t)
	// Feasible: each vertex's incident sum within its weight.
	x := []float64{0.4, 0.5, 0.5} // edges (0,1), (0,2), (1,2)
	if err := DualFeasible(g, x); err != nil {
		t.Fatalf("feasible dual rejected: %v", err)
	}
	// Vertex 0 has weight 1; incident edges (0,1) and (0,2).
	bad := []float64{0.7, 0.7, 0}
	if err := DualFeasible(g, bad); err == nil {
		t.Fatal("infeasible dual accepted")
	} else if !strings.Contains(err.Error(), "vertex 0") {
		t.Fatalf("error does not name vertex 0: %v", err)
	}
	if err := DualFeasible(g, []float64{-0.1, 0, 0}); err == nil {
		t.Fatal("negative dual accepted")
	}
	if err := DualFeasible(g, []float64{math.NaN(), 0, 0}); err == nil {
		t.Fatal("NaN dual accepted")
	}
	if err := DualFeasible(g, []float64{0, 0}); err == nil {
		t.Fatal("wrong-length dual accepted")
	}
}

func TestDualFeasibleTolerance(t *testing.T) {
	g := triangle(t)
	// Just over the constraint by far less than tolerance: accepted.
	x := []float64{0.5, 0.5 + 1e-12, 0}
	if err := DualFeasible(g, x); err != nil {
		t.Fatalf("within-tolerance dual rejected: %v", err)
	}
}

func TestDualValue(t *testing.T) {
	if v := DualValue([]float64{0.5, 1.5, 2}); v != 4 {
		t.Fatalf("DualValue = %v", v)
	}
	if v := DualValue(nil); v != 0 {
		t.Fatalf("DualValue(nil) = %v", v)
	}
}

func TestCertificate(t *testing.T) {
	g := triangle(t)
	cover := []bool{true, true, false}
	x := []float64{0.4, 0.5, 0.5}
	c, err := NewCertificate(g, cover, x)
	if err != nil {
		t.Fatal(err)
	}
	if c.Weight != 3 {
		t.Fatalf("certificate weight %v, want 3", c.Weight)
	}
	if c.Bound != 1.4 {
		t.Fatalf("certificate bound %v, want 1.4", c.Bound)
	}
	if r := c.Ratio(); math.Abs(r-3/1.4) > 1e-12 {
		t.Fatalf("ratio %v", r)
	}
}

func TestCertificateRejectsNonCover(t *testing.T) {
	g := triangle(t)
	if _, err := NewCertificate(g, []bool{true, false, false}, []float64{0, 0, 0}); err == nil {
		t.Fatal("non-cover accepted")
	}
	if _, err := NewCertificate(g, []bool{true}, []float64{0, 0, 0}); err == nil {
		t.Fatal("wrong-length cover accepted")
	}
	if _, err := NewCertificate(g, []bool{true, true, true}, []float64{9, 9, 9}); err == nil {
		t.Fatal("infeasible dual accepted")
	}
}

func TestCertificateEdgelessRatio(t *testing.T) {
	g := graph.NewBuilder(3).MustBuild()
	c, err := NewCertificate(g, make([]bool, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ratio() != 1 {
		t.Fatalf("edgeless ratio %v, want 1", c.Ratio())
	}
}

func TestCertificateZeroBoundNonzeroWeight(t *testing.T) {
	g := graph.NewBuilder(2).MustBuild()
	c, err := NewCertificate(g, []bool{true, false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(c.Ratio(), 1) {
		t.Fatalf("ratio %v, want +Inf", c.Ratio())
	}
}
