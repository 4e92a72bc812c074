// Package exact computes optimal minimum-weight vertex covers for small
// graphs (n ≤ 64) by branch and bound over bitset-encoded subproblems. It
// supplies the OPT ground truth for the approximation-ratio experiments;
// at larger scales the experiments fall back to the weak-duality lower
// bound Σx_e (Lemma 3.2), which the algorithms certify themselves.
package exact

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/reduce"
	"repro/internal/solver"
)

// MaxVertices is the largest instance Solve accepts.
const MaxVertices = 64

// Solve returns an optimal vertex cover and its weight. It errors when the
// graph has more than MaxVertices vertices. The context is polled every few
// thousand branch-and-bound nodes, so a cancellation or deadline aborts the
// search promptly with ctx.Err().
func Solve(ctx context.Context, g *graph.Graph) ([]bool, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumVertices()
	if n > MaxVertices {
		return nil, 0, tooLarge(ctx, g)
	}
	s := &bb{
		n:       n,
		ctx:     ctx,
		weights: g.Weights(),
		adj:     make([]uint64, n),
		best:    math.Inf(1),
	}
	ep := g.EdgeEndpoints()
	for e := 0; e < g.NumEdges(); e++ {
		u, v := ep[2*e], ep[2*e+1]
		s.adj[u] |= 1 << uint(v)
		s.adj[v] |= 1 << uint(u)
	}
	full := uint64(0)
	if n > 0 {
		full = ^uint64(0) >> uint(64-n)
	}
	s.search(full, 0, 0)
	if s.err != nil {
		return nil, 0, s.err
	}
	cover := make([]bool, n)
	for v := 0; v < n; v++ {
		if s.bestSet&(1<<uint(v)) != 0 {
			cover[v] = true
		}
	}
	return cover, s.best, nil
}

// maxProbeEdges caps the instance size tooLarge is willing to kernelize
// for a diagnostic: beyond it the probe could burn seconds of CPU (the
// domination sweep is the costly part) just to format an error string, so
// larger instances get the plain over-limit message instead.
const maxProbeEdges = 2_000_000

// tooLarge builds the over-limit error. For moderately sized instances it
// runs the kernelization once so the message can say whether the instance
// is actually out of reach: a graph whose kernel fits the solver is
// solvable — the caller just has to leave reduction enabled. When Solve was
// handed an already-reduced kernel (the pipeline's case), reducing again is
// a fixpoint no-op and the message correctly reports the kernel as still
// too large. An error-path-only cost, bounded by maxProbeEdges and the
// context.
func tooLarge(ctx context.Context, g *graph.Graph) error {
	n := g.NumVertices()
	if g.NumEdges() > maxProbeEdges {
		return fmt.Errorf("exact: %d vertices exceed the %d-vertex solver limit: %w", n, MaxVertices, solver.ErrUnsupported)
	}
	red, err := reduce.Run(ctx, g)
	if err != nil {
		return fmt.Errorf("exact: %d vertices exceed the %d-vertex solver limit: %w", n, MaxVertices, solver.ErrUnsupported)
	}
	k := red.Stats.KernelVertices
	if k < n && k <= MaxVertices {
		return fmt.Errorf("exact: %d vertices exceed the %d-vertex solver limit, but the instance reduces to a %d-vertex kernel — leave reduction on (the default; no mwvc.WithoutReduction, no CLI -reduce=false) to solve it exactly: %w",
			n, MaxVertices, k, solver.ErrUnsupported)
	}
	return fmt.Errorf("exact: %d vertices exceed the %d-vertex solver limit and the kernel is still too large (%d vertices after reduction): %w",
		n, MaxVertices, k, solver.ErrUnsupported)
}

type bb struct {
	n       int
	ctx     context.Context
	weights []float64
	adj     []uint64
	best    float64
	bestSet uint64
	// nodes counts explored search nodes; every 4096th node polls ctx. err
	// latches the context error and unwinds the recursion.
	nodes uint64
	err   error
}

// search explores the subproblem where `active` vertices are undecided and
// `chosen` (weight `acc`) is the cover so far. All edges with an endpoint
// outside `active` are already covered.
func (s *bb) search(active uint64, chosen uint64, acc float64) {
	if s.err != nil {
		return
	}
	s.nodes++
	if s.nodes&0xFFF == 0 {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return
		}
	}
	if acc >= s.best {
		return
	}
	// Drop active vertices with no active neighbors: never needed.
	//lint:allow ctxloop every non-final pass clears >=1 of <=64 active bits, so <=65 trips; search polls ctx every 4096 nodes
	for {
		changed := false
		rest := active
		for rest != 0 {
			v := bits.TrailingZeros64(rest)
			rest &= rest - 1
			if s.adj[v]&active == 0 {
				active &^= 1 << uint(v)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if active == 0 {
		s.best = acc
		s.bestSet = chosen
		return
	}
	// Lower bound: Bar-Yehuda–Even duals on the active subgraph (a feasible
	// fractional matching, hence ≤ OPT of the subproblem by weak duality).
	if acc+s.dualBound(active) >= s.best {
		return
	}
	// Branch on the active vertex with the most active neighbors.
	v, maxDeg := -1, 0
	rest := active
	for rest != 0 {
		u := bits.TrailingZeros64(rest)
		rest &= rest - 1
		if d := bits.OnesCount64(s.adj[u] & active); d > maxDeg {
			maxDeg = d
			v = u
		}
	}
	nbrs := s.adj[v] & active
	// Branch 1: v joins the cover.
	s.search(active&^(1<<uint(v)), chosen|1<<uint(v), acc+s.weights[v])
	// Branch 2: v stays out, so all its active neighbors must join.
	wsum := 0.0
	rest = nbrs
	for rest != 0 {
		u := bits.TrailingZeros64(rest)
		rest &= rest - 1
		wsum += s.weights[u]
	}
	s.search(active&^(nbrs|1<<uint(v)), chosen|nbrs, acc+wsum)
}

// dualBound runs one Bar-Yehuda–Even pass over the active subgraph and
// returns the resulting fractional-matching value — a valid lower bound on
// the subproblem's optimum.
func (s *bb) dualBound(active uint64) float64 {
	residual := make([]float64, s.n)
	rest := active
	for rest != 0 {
		v := bits.TrailingZeros64(rest)
		rest &= rest - 1
		residual[v] = s.weights[v]
	}
	total := 0.0
	rest = active
	for rest != 0 {
		u := bits.TrailingZeros64(rest)
		rest &= rest - 1
		nb := s.adj[u] & active
		for nb != 0 {
			v := bits.TrailingZeros64(nb)
			nb &= nb - 1
			if v <= u { // each undirected edge once
				continue
			}
			d := math.Min(residual[u], residual[v])
			if d > 0 {
				residual[u] -= d
				residual[v] -= d
				total += d
			}
		}
	}
	return total
}

// BruteForce exhaustively minimizes over all 2^n subsets; for cross-checking
// the solver on tiny graphs (n ≤ 24 or it errors).
func BruteForce(g *graph.Graph) ([]bool, float64, error) {
	n := g.NumVertices()
	if n > 24 {
		return nil, 0, fmt.Errorf("exact: brute force limited to 24 vertices, got %d", n)
	}
	type edge struct{ u, v int }
	edges := make([]edge, g.NumEdges())
	ep := g.EdgeEndpoints()
	for e := 0; e < g.NumEdges(); e++ {
		u, v := ep[2*e], ep[2*e+1]
		edges[e] = edge{int(u), int(v)}
	}
	best := math.Inf(1)
	bestSet := uint32(0)
	for set := uint32(0); set < 1<<uint(n); set++ {
		w := 0.0
		for v := 0; v < n; v++ {
			if set&(1<<uint(v)) != 0 {
				w += g.Weight(graph.Vertex(v))
			}
		}
		if w >= best {
			continue
		}
		ok := true
		for _, e := range edges {
			if set&(1<<uint(e.u)) == 0 && set&(1<<uint(e.v)) == 0 {
				ok = false
				break
			}
		}
		if ok {
			best = w
			bestSet = set
		}
	}
	cover := make([]bool, n)
	for v := 0; v < n; v++ {
		cover[v] = bestSet&(1<<uint(v)) != 0
	}
	return cover, best, nil
}
