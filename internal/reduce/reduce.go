// Package reduce implements weighted kernelization for minimum-weight
// vertex cover: reduction rules that shrink an instance before any solver
// runs, plus a replayable trace that lifts a kernel cover back to a cover
// of the original graph with exact weight accounting.
//
// Four rules run to a fixpoint over a worklist, all operating directly on
// the immutable CSR graph with flat per-vertex state (alive mask, residual
// degrees) — no mutable graph copy is ever built:
//
//   - isolated: a vertex with no uncovered incident edge is never needed.
//   - pendant (weighted degree-1): a degree-1 vertex u with neighbor v and
//     w(u) ≥ w(v) lets v join the cover and u leave the instance.
//   - domination (weighted): for an edge (u, v) with N[v] ⊆ N[u] and
//     w(u) ≤ w(v), some optimal cover contains u.
//   - neighborhood weight: if w(v) ≥ Σ w(N(v)), taking all of N(v) is never
//     worse than taking v, so N(v) joins the cover and v leaves.
//
// The domination sweep visits the alive vertices in id order and forces, for
// each v, the first neighbor u in v's adjacency row that is alive, weighs at
// most w(v), and is adjacent to every other alive neighbor of v. Two exact
// filters decide most pairs without that subset scan. A witness x0 (the
// first alive neighbor of v whose row is no longer than v's) has its row
// stamped, and a dominator other than x0 must be adjacent to x0, so one
// stamp read rejects most candidates. A dominator also has residual degree
// at least v's. Stamping costs at most the length of v's own row, so at most
// 2m words per sweep. A later sweep skips a vertex found undominated at its
// present residual degree, and the drain skips the neighborhood sum where
// w(v) < deg(v)·w_min·(1−10⁻⁶), a bound the sum always exceeds.
//
// Every rule preserves the optimum exactly: OPT(G) = ForcedWeight +
// OPT(kernel), so the forced weight is a sound additive term for both the
// lifted cover weight (primal) and any lower bound certified on the kernel
// (dual) — certified ratios survive lifting. DESIGN.md §"Kernelization"
// carries the per-rule soundness arguments.
package reduce

import (
	"context"
	"math"

	"repro/internal/graph"
)

// Stats reports what one reduction pass did; it travels through
// solver.Outcome and mwvc.Solution so every layer can account for the
// kernelization stage honestly.
type Stats struct {
	// OriginalVertices and OriginalEdges are the instance size before
	// reduction; KernelVertices and KernelEdges after.
	OriginalVertices int `json:"original_vertices"`
	OriginalEdges    int `json:"original_edges"`
	KernelVertices   int `json:"kernel_vertices"`
	KernelEdges      int `json:"kernel_edges"`

	// Per-rule application counts (cascaded applications included).
	Isolated           int `json:"isolated,omitempty"`
	Pendant            int `json:"pendant,omitempty"`
	Domination         int `json:"domination,omitempty"`
	NeighborhoodWeight int `json:"neighborhood_weight,omitempty"`

	// ForcedVertices and ForcedWeight describe the vertices the rules
	// committed to the cover; ForcedWeight adds exactly to both the lifted
	// cover weight and the kernel's certified lower bound.
	ForcedVertices int     `json:"forced_vertices,omitempty"`
	ForcedWeight   float64 `json:"forced_weight,omitempty"`

	// ReduceNS is the wall-clock time of Run alone, filled by the pipeline
	// that invoked it. A solve the pipeline runs beside Run is not in it.
	// It is 0 when the pipeline took a kernel stored in a solver.Kernel
	// instead of calling Run, and at least 1 when Run ran.
	ReduceNS int64 `json:"reduce_ns,omitempty"`
}

// Trace records how a graph was reduced, replayably: Lift reconstructs a
// cover of the original graph from any cover of the kernel, and LiftDuals
// re-indexes a kernel dual vector onto the original edge ids. A nil Trace
// (returned when nothing reduced) means the kernel is the original graph.
type Trace struct {
	orig    *graph.Graph
	kernel  *graph.Graph
	forced  []graph.Vertex // original ids committed to the cover
	forcedW float64
	toOrig  []graph.Vertex // kernel vertex id → original vertex id
}

// ForcedWeight returns the total weight of the vertices the reduction
// committed to the cover.
func (t *Trace) ForcedWeight() float64 { return t.forcedW }

// Lift maps a cover of the kernel back to a cover of the original graph:
// the forced vertices plus the kernel cover translated through the vertex
// mapping. The returned forced weight is the exact additive difference
// between the kernel cover's weight and the lifted cover's weight, and is
// likewise a sound additive term for the kernel's dual lower bound.
func (t *Trace) Lift(kernelCover []bool) (cover []bool, forcedWeight float64) {
	if len(kernelCover) != len(t.toOrig) {
		panic("reduce: Lift cover length does not match kernel")
	}
	cover = make([]bool, t.orig.NumVertices())
	for _, v := range t.forced {
		cover[v] = true
	}
	for i, in := range kernelCover {
		if in {
			cover[t.toOrig[i]] = true
		}
	}
	return cover, t.forcedW
}

// Restrict inverts Lift on the kernel coordinates: it projects a cover of
// the original graph down to the kernel's vertex ids, dropping the forced
// and eliminated vertices. Restrict(Lift(c)) == c for every kernel cover c,
// which lets tests and tools audit exactly what a downstream stage (e.g.
// the anytime improvement) did to the kernel cover after lifting.
func (t *Trace) Restrict(cover []bool) []bool {
	if len(cover) != t.orig.NumVertices() {
		panic("reduce: Restrict cover length does not match original")
	}
	out := make([]bool, len(t.toOrig))
	for i, v := range t.toOrig {
		out[i] = cover[v]
	}
	return out
}

// LiftDuals re-indexes a feasible fractional matching on the kernel onto
// the original graph's edge ids (zero on every non-kernel edge). The result
// is feasible on the original graph: kernel vertices keep their incident
// sums, and forced or dropped vertices carry zero.
func (t *Trace) LiftDuals(kernelDuals []float64) []float64 {
	if len(kernelDuals) != t.kernel.NumEdges() {
		panic("reduce: LiftDuals vector length does not match kernel")
	}
	out := make([]float64, t.orig.NumEdges())
	ep := t.kernel.EdgeEndpoints()
	for e := 0; e < t.kernel.NumEdges(); e++ {
		u, v := t.toOrig[ep[2*e]], t.toOrig[ep[2*e+1]]
		out[t.orig.EdgeBetween(u, v)] = kernelDuals[e]
	}
	return out
}

// Result is the outcome of Run: the kernel graph, the trace that lifts
// kernel covers back (nil when nothing reduced and Kernel aliases the
// input), and the accounting stats.
type Result struct {
	Kernel *graph.Graph
	Trace  *Trace
	Stats  Stats
}

// Run applies all reduction rules to a fixpoint and assembles the kernel.
// It is deterministic (worklist and sweeps run in vertex order) and only
// reads g. The context is polled throughout, so cancellation aborts a
// long reduction promptly.
func Run(ctx context.Context, g *graph.Graph) (*Result, error) {
	return RunNotify(ctx, g, nil)
}

// RunNotify is Run with a first-change callback: changed, when non-nil, is
// called once on the calling goroutine, just before the first rule removes
// a vertex. Every rule removes one, so a returned Result carries a Trace
// exactly when changed ran. A caller that bets on the input being
// irreducible learns at once, without waiting for the fixpoint, that it
// lost.
func RunNotify(ctx context.Context, g *graph.Graph, changed func()) (*Result, error) {
	r := &reducer{g: g, ctx: ctx, changed: changed}
	if err := r.fixpoint(); err != nil {
		return nil, err
	}
	return r.result()
}

// OnlyDomination reports whether, on g as given, neither the isolated, the
// pendant nor the neighborhood-weight rule can fire, so only domination
// could reduce it. It is one O(n) pass: every vertex needs degree at least
// 2, and w(v) < deg(v)·w_min ≤ Σ w(N(v)), since every neighbor weighs at
// least w_min. It predicts cheaply, before Run, that the kernel is likely
// to be g itself (the large-d G(n, p) regime), and decides nothing that
// correctness depends on.
func OnlyDomination(g *graph.Graph) bool {
	wmin, ratio := math.Inf(1), 0.0 // ratio is max over v of w(v)/deg(v)
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(graph.Vertex(v))
		if d < 2 {
			return false
		}
		w := g.Weight(graph.Vertex(v))
		wmin = min(wmin, w)
		ratio = max(ratio, w/float64(d))
	}
	return ratio < wmin
}

// result assembles the kernel, the trace and the stats from the fixpoint
// state.
func (r *reducer) result() (*Result, error) {
	g, n := r.g, r.g.NumVertices()
	st := r.st
	st.OriginalVertices = n
	st.OriginalEdges = g.NumEdges()
	st.ForcedWeight = r.forcedW

	removed := 0
	for v := 0; v < n; v++ {
		if !r.alive[v] {
			removed++
		}
	}
	if removed == 0 {
		st.KernelVertices = n
		st.KernelEdges = g.NumEdges()
		return &Result{Kernel: g, Stats: st}, nil
	}

	aliveList := make([]graph.Vertex, 0, n-removed)
	var forced []graph.Vertex
	for v := 0; v < n; v++ {
		switch {
		case r.alive[v]:
			aliveList = append(aliveList, graph.Vertex(v))
		case r.inCover[v]:
			forced = append(forced, graph.Vertex(v))
		}
	}
	kernel, toOrig, err := g.Induced(aliveList)
	if err != nil {
		return nil, err
	}
	st.KernelVertices = kernel.NumVertices()
	st.KernelEdges = kernel.NumEdges()
	tr := &Trace{orig: g, kernel: kernel, forced: forced, forcedW: r.forcedW, toOrig: toOrig}
	return &Result{Kernel: kernel, Trace: tr, Stats: st}, nil
}

// reducer is the mutable fixpoint state over one immutable graph.
type reducer struct {
	g       *graph.Graph
	ctx     context.Context
	changed func() // RunNotify's callback; nil once called
	st      Stats  // rule counts; result fills in the rest

	alive   []bool  // vertex still in the residual instance
	inCover []bool  // vertex forced into the cover
	deg     []int32 // residual degree: alive neighbors of an alive vertex
	stamp   []int32 // dominatorOf: stamp[y] == v+1 marks y ∈ N(witness of v)
	// checked[v] is deg[v] when the sweep last found v undominated, else -1.
	checked []int32
	// wfloor is w_min·(1−10⁻⁶), w_min the least vertex weight, or 0 where
	// that is subnormal: a vertex with w(v) < deg[v]·wfloor weighs less
	// than its alive neighbors together (see drain).
	wfloor  float64
	forcedW float64

	queue   []graph.Vertex
	inQueue []bool
	polls   uint
}

// poll checks the context every 4096th call so the rule loops stay cheap.
func (r *reducer) poll() error {
	r.polls++
	if r.polls&0xFFF == 0 {
		return r.ctx.Err()
	}
	return nil
}

// change runs the first-change callback, if it has not run yet. Every rule
// calls it before it removes its first vertex.
func (r *reducer) change() {
	if r.changed != nil {
		r.changed()
		r.changed = nil
	}
}

func (r *reducer) push(v graph.Vertex) {
	if r.alive[v] && !r.inQueue[v] {
		r.inQueue[v] = true
		r.queue = append(r.queue, v)
	}
}

// force commits u to the cover and removes it from the residual instance;
// its uncovered incident edges disappear, so every alive neighbor loses a
// degree and re-enters the worklist.
func (r *reducer) force(u graph.Vertex) {
	r.alive[u] = false
	r.inCover[u] = true
	r.st.ForcedVertices++
	r.forcedW += r.g.Weight(u)
	for _, x := range r.g.Neighbors(u) {
		if r.alive[x] {
			r.deg[x]--
			r.push(x)
		}
	}
}

// fixpoint alternates the cheap worklist rules (isolated, pendant,
// neighborhood weight) with domination sweeps until neither changes
// anything.
func (r *reducer) fixpoint() error {
	n := r.g.NumVertices()
	r.alive = make([]bool, n)
	r.inCover = make([]bool, n)
	r.inQueue = make([]bool, n)
	r.deg = make([]int32, n)
	r.stamp = make([]int32, n)
	r.checked = make([]int32, n)
	r.queue = make([]graph.Vertex, 0, n)
	wmin := math.Inf(1)
	for v := 0; v < n; v++ {
		r.alive[v] = true
		r.inQueue[v] = true
		r.deg[v] = int32(r.g.Degree(graph.Vertex(v)))
		r.checked[v] = -1
		r.queue = append(r.queue, graph.Vertex(v))
		wmin = min(wmin, r.g.Weight(graph.Vertex(v)))
	}
	if r.wfloor = wmin * (1 - 1e-6); r.wfloor < 0x1p-1022 {
		r.wfloor = 0 // too few significant bits to keep the margin
	}
	for {
		if err := r.drain(); err != nil {
			return err
		}
		changed, err := r.dominationSweep()
		if err != nil {
			return err
		}
		if !changed {
			return nil
		}
	}
}

// drain runs the worklist rules to exhaustion.
func (r *reducer) drain() error {
	for len(r.queue) > 0 {
		v := r.queue[0]
		r.queue = r.queue[1:]
		r.inQueue[v] = false
		if !r.alive[v] {
			continue
		}
		if err := r.poll(); err != nil {
			return err
		}
		switch {
		case r.deg[v] == 0:
			// Isolated: every incident edge already has a forced endpoint
			// (or never existed), so v is never needed.
			r.change()
			r.alive[v] = false
			r.st.Isolated++
		case r.deg[v] == 1:
			u := r.soleAliveNeighbor(v)
			if r.g.Weight(v) >= r.g.Weight(u) {
				// Pendant: covering the single edge (v, u) from the u side
				// costs no more and covers at least as much.
				r.change()
				r.force(u)
				r.alive[v] = false
				r.st.Pendant++
			}
		case r.g.Weight(v) < float64(r.deg[v])*r.wfloor:
			// Neighborhood weight cannot fire: each of the deg[v] alive
			// neighbors weighs at least w_min, so their float sum is at
			// least deg[v]·w_min·(1 − deg[v]·2⁻⁵³), above deg[v]·wfloor.
		default:
			s := 0.0
			for _, u := range r.g.Neighbors(v) {
				if r.alive[u] {
					s += r.g.Weight(u)
				}
			}
			if r.g.Weight(v) >= s {
				// Neighborhood weight: swapping v for all of N(v) in any
				// cover never costs more, so N(v) is forced and v dropped.
				r.change()
				for _, u := range r.g.Neighbors(v) {
					if r.alive[u] {
						r.force(u)
					}
				}
				r.alive[v] = false
				r.st.NeighborhoodWeight++
			}
		}
	}
	return nil
}

// soleAliveNeighbor returns the single alive neighbor of a residual
// degree-1 vertex.
func (r *reducer) soleAliveNeighbor(v graph.Vertex) graph.Vertex {
	for _, u := range r.g.Neighbors(v) {
		if r.alive[u] {
			return u
		}
	}
	panic("reduce: residual degree-1 vertex has no alive neighbor")
}

// dominationSweep scans every alive vertex v for an alive neighbor u with
// w(u) ≤ w(v) whose closed residual neighborhood contains v's — then some
// optimal cover contains u, and u is forced. Returns whether anything
// changed (follow-up cheap rules are queued by force itself).
//
//mwvc:hotpath
func (r *reducer) dominationSweep() (bool, error) {
	changed := false
	for v := 0; v < r.g.NumVertices(); v++ {
		// A vertex found undominated at its present residual degree has the
		// same alive neighbors as then (reduction only removes vertices),
		// so it still has no dominator.
		if !r.alive[v] || r.deg[v] == r.checked[v] {
			continue
		}
		if err := r.poll(); err != nil {
			return false, err
		}
		if u := r.dominatorOf(graph.Vertex(v)); u >= 0 {
			r.change()
			r.force(u)
			r.st.Domination++
			changed = true // v's residual degree changed; the worklist revisits it
		} else {
			r.checked[v] = r.deg[v]
		}
	}
	return changed, nil
}

// dominatorOf returns the first neighbor u of v, in adjacency order, that is
// alive, weighs at most w(v) and dominates v; -1 if there is none. Two exact
// filters keep most candidates away from the dominates scan:
//
//   - Witness. Every alive neighbor x ≠ u of v must be adjacent to a
//     dominator u. The witness x0 is the first alive neighbor whose row is no
//     longer than v's; its row is stamped with v+1, so a candidate u ≠ x0
//     is rejected by one read of its stamp. When no neighbor qualifies, the
//     first alive neighbor's row answers by binary search instead.
//   - Degree. A dominator is adjacent to v and to every other alive
//     neighbor of v, so deg[u] ≥ deg[v]; deg counts alive neighbors exactly.
//
// A stamp left by the same v in an earlier sweep can only let a candidate
// through to the exact test, never reject one.
//
//mwvc:hotpath
func (r *reducer) dominatorOf(v graph.Vertex) graph.Vertex {
	row := r.g.Neighbors(v)
	first, witness := graph.Vertex(-1), graph.Vertex(-1)
	for _, x := range row {
		if !r.alive[x] {
			continue
		}
		if first < 0 {
			first = x
		}
		if r.g.Degree(x) <= len(row) {
			witness = x
			break
		}
	}
	if first < 0 {
		return -1
	}
	mark := v + 1
	if witness >= 0 {
		for _, y := range r.g.Neighbors(witness) {
			r.stamp[y] = mark
		}
	}
	wv, dv := r.g.Weight(v), r.deg[v]
	for _, u := range row {
		if witness >= 0 && u != witness && r.stamp[u] != mark {
			continue
		}
		if !r.alive[u] || r.g.Weight(u) > wv || r.deg[u] < dv {
			continue
		}
		if witness < 0 && u != first && !r.g.HasEdge(first, u) {
			continue
		}
		if r.dominates(u, v) {
			return u
		}
	}
	return -1
}

// dominates reports whether every alive neighbor of v other than u is also
// adjacent to u, i.e. N_res[v] ⊆ N_res[u] for the adjacent pair (u, v).
// Adjacency in the original graph suffices: an edge between two alive
// vertices is by definition still uncovered.
//
//mwvc:hotpath
func (r *reducer) dominates(u, v graph.Vertex) bool {
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
