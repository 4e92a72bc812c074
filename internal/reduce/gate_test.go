package reduce

import (
	"context"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestFirstChangeAndGate runs every sweep-matrix graph with a first-change
// callback. The callback must run once, before any vertex is removed or
// counted, exactly when the result carries a trace. A graph that passes
// OnlyDomination and still reduces must have had domination fire.
func TestFirstChangeAndGate(t *testing.T) {
	passed, reduced := 0, 0
	for _, c := range sweepMatrix() {
		r := &reducer{g: c.g, ctx: context.Background()}
		calls := 0
		r.changed = func() {
			calls++
			if r.st != (Stats{}) || slices.Contains(r.alive, false) {
				t.Errorf("%s: callback ran after a removal (stats %+v)", c.name, r.st)
			}
		}
		if err := r.fixpoint(); err != nil {
			t.Fatal(err)
		}
		res, err := r.result()
		if err != nil {
			t.Fatal(err)
		}
		if calls > 1 || (calls == 1) != (res.Trace != nil) {
			t.Fatalf("%s: callback ran %d times, trace present %v", c.name, calls, res.Trace != nil)
		}
		if !OnlyDomination(c.g) {
			continue
		}
		passed++
		if res.Trace != nil {
			reduced++
			if res.Stats.Domination == 0 {
				t.Fatalf("%s passes the gate but reduced without domination: %+v", c.name, res.Stats)
			}
		}
	}
	if passed == 0 || reduced == 0 {
		t.Fatalf("%d matrix graphs pass the gate and %d of them reduce; the gate check exercises nothing", passed, reduced)
	}
	t.Logf("%d matrix graphs pass the gate, %d of them reduce", passed, reduced)
}

// TestOnlyDominationBoundaries pins the gate's two conditions at their
// edges: a degree-1 vertex fails it, and so does w(v) = deg(v)·w_min.
func TestOnlyDominationBoundaries(t *testing.T) {
	triangle := func(w2 float64) *graph.Graph {
		g, err := graph.FromEdgeList(3, [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}}, []float64{1, 1.5, w2})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	path, err := graph.FromEdgeList(3, [][2]graph.Vertex{{0, 1}, {1, 2}}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"triangle, w < deg·w_min", triangle(1.9), true},
		{"triangle, w = deg·w_min", triangle(2), false},
		{"path, degree-1 ends", path, false},
	} {
		if got := OnlyDomination(c.g); got != c.want {
			t.Errorf("%s: OnlyDomination = %v, want %v", c.name, got, c.want)
		}
	}
}
