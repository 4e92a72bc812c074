package reduce

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// refDominationSweep is the plain domination sweep that dominatorOf's
// filters must reproduce: every alive neighbor u with w(u) ≤ w(v) goes
// straight to the subset scan, in adjacency order.
func (r *reducer) refDominationSweep() (bool, error) {
	changed := false
	for v := 0; v < r.g.NumVertices(); v++ {
		if !r.alive[v] {
			continue
		}
		if err := r.poll(); err != nil {
			return false, err
		}
		wv := r.g.Weight(graph.Vertex(v))
		for _, u := range r.g.Neighbors(graph.Vertex(v)) {
			if !r.alive[u] || r.g.Weight(u) > wv {
				continue
			}
			if r.refDominates(u, graph.Vertex(v)) {
				r.force(u)
				r.st.Domination++
				changed = true
				break // v's residual degree changed; the worklist revisits it
			}
		}
	}
	return changed, nil
}

// refDominates reports whether every alive neighbor of v other than u is
// also adjacent to u.
func (r *reducer) refDominates(u, v graph.Vertex) bool {
	for _, x := range r.g.Neighbors(v) {
		if x == u || !r.alive[x] {
			continue
		}
		if !r.g.HasEdge(u, x) {
			return false
		}
	}
	return true
}

// refFixpoint is fixpoint with the reference sweep.
func (r *reducer) refFixpoint() error {
	n := r.g.NumVertices()
	r.alive = make([]bool, n)
	r.inCover = make([]bool, n)
	r.inQueue = make([]bool, n)
	r.deg = make([]int32, n)
	r.queue = make([]graph.Vertex, 0, n)
	for v := 0; v < n; v++ {
		r.alive[v] = true
		r.inQueue[v] = true
		r.deg[v] = int32(r.g.Degree(graph.Vertex(v)))
		r.queue = append(r.queue, graph.Vertex(v))
	}
	for {
		if err := r.drain(); err != nil {
			return err
		}
		changed, err := r.refDominationSweep()
		if err != nil {
			return err
		}
		if !changed {
			return nil
		}
	}
}

// sweepCase is one weighted graph of the sweep matrix.
type sweepCase struct {
	name string
	g    *graph.Graph
}

// sweepMatrix spans sparse to dense random graphs, heavy-tailed and
// small-world structure, regular lattices, the two extremes of neighborhood
// containment (clique, complete bipartite), and a hub-first wheel, each under
// every standard weight model with four seeds.
func sweepMatrix() []sweepCase {
	var cases []sweepCase
	for seed := uint64(1); seed <= 4; seed++ {
		shapes := []sweepCase{
			{"gnp-d3", gen.GnpAvgDegree(seed, 600, 3)},
			{"gnp-d12", gen.GnpAvgDegree(seed, 600, 12)},
			{"gnp-d64", gen.GnpAvgDegree(seed, 600, 64)},
			{"pa", gen.PreferentialAttachment(seed, 800, 3)},
			{"rmat", gen.RMAT(seed, 10, 8, 0.57, 0.19, 0.19)},
			{"smallworld", gen.WattsStrogatz(seed, 600, 4, 0.1)},
			{"grid", gen.Grid(20, 25)},
			{"clique", gen.Clique(30)},
			{"complete-bipartite", gen.CompleteBipartite(15, 25)},
			{"hub-wheel", hubWheel(400, 1)},
		}
		for _, s := range shapes {
			for _, m := range gen.StandardModels() {
				cases = append(cases, sweepCase{
					name: fmt.Sprintf("%s/%s/%d", s.name, m.Name(), seed),
					g:    gen.ApplyWeights(s.g, seed, m),
				})
			}
		}
	}
	return cases
}

// TestSweepMatchesReference pins the filtered sweep to the plain one: the
// fixpoint state, the stats and the built kernel are identical on every
// matrix graph.
func TestSweepMatchesReference(t *testing.T) {
	dominations := 0
	for _, c := range sweepMatrix() {
		got := &reducer{g: c.g, ctx: context.Background()}
		if err := got.fixpoint(); err != nil {
			t.Fatal(err)
		}
		want := &reducer{g: c.g, ctx: context.Background()}
		if err := want.refFixpoint(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.alive, want.alive) || !reflect.DeepEqual(got.inCover, want.inCover) ||
			!reflect.DeepEqual(got.deg, want.deg) {
			t.Fatalf("%s: fixpoint state differs from the reference sweep", c.name)
		}
		gotRes, err := got.result()
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := want.result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("%s: result differs from the reference sweep:\n%+v\n%+v", c.name, gotRes.Stats, wantRes.Stats)
		}
		dominations += gotRes.Stats.Domination
	}
	if dominations == 0 {
		t.Fatal("domination never fired over the matrix; the comparison exercises nothing")
	}
	t.Logf("%d domination firings", dominations)
}

// TestResidualDegreeInvariant checks what the sweep's degree filter relies
// on: after the fixpoint, deg[v] is exactly the number of alive neighbors
// of every alive vertex v.
func TestResidualDegreeInvariant(t *testing.T) {
	for _, c := range sweepMatrix() {
		r := &reducer{g: c.g, ctx: context.Background()}
		if err := r.fixpoint(); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < c.g.NumVertices(); v++ {
			if !r.alive[v] {
				continue
			}
			alive := int32(0)
			for _, x := range c.g.Neighbors(graph.Vertex(v)) {
				if r.alive[x] {
					alive++
				}
			}
			if r.deg[v] != alive {
				t.Fatalf("%s: deg[%d] = %d, but it has %d alive neighbors", c.name, v, r.deg[v], alive)
			}
		}
	}
}
