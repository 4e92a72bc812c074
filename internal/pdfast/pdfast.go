// Package pdfast implements the serve tier's fast path: an O(m) primal–dual
// MWVC 2-approximation over the flat CSR arrays, whose synchronized sweeps
// split across shared-memory workers without changing a bit of the output.
//
// The algorithm has two stages. Synchronized dual-raising rounds — the
// Khuller–Vishkin–Young deterministic parallel primal–dual technique
// (PAPERS.md, cs/0205037) — sweep the CSR rows in parallel: every live
// vertex posts the uniform per-edge bid gap(v)/liveDeg(v) against its
// residual weight, every live edge's dual rises by the smaller endpoint
// bid, and vertices whose residual is exhausted join the cover. A round
// retires exactly the vertices whose bid is a local minimum, so on
// weight-homogeneous instances one or two sweeps cover almost everything,
// while on weight-heterogeneous instances the retirement rate can stall
// near 1/Δ per round. The stage therefore runs only while productive —
// while a round retires at least a quarter of the live edges — and a
// serial local-ratio tail (verify.LocalRatio, the classic Bar-Yehuda–Even
// edge scan, run over the surviving subgraph on the residual gaps)
// finishes the stragglers in one pass. Total work is O(m) per executed
// stage and the productivity rule caps the synchronized stage at a
// constant number of full sweeps.
//
// The worker count is a property of how the sweep runs, not of the
// algorithm: the one registered solver (`pdfast`) takes it from
// solver.Config.Parallelism (0 = GOMAXPROCS), and every count executes the
// identical computation. Within a round every per-vertex step reads only
// state committed before the round (cover bits, bids) and writes only its
// own slots, each edge's dual is written by exactly one endpoint (the
// smaller vertex id), and the tail is serial. Work partitioning therefore
// cannot change any floating-point operation order, making the output
// bit-for-bit identical at any worker count and any GOMAXPROCS. Every
// covered vertex is exactly saturated in exact arithmetic, so the primal
// weight is at most twice the dual value: the returned dual certifies
// ratio ≤ 2.
package pdfast

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/verify"
)

// parallelCutoff is the live-list length below which a sweep runs serially;
// spawning goroutines for a few hundred vertices costs more than the scan.
const parallelCutoff = 2048

// roundCutoff is the edge count below which the synchronized stage is
// skipped entirely: on small graphs the tail's single serial scan beats any
// round bookkeeping.
const roundCutoff = 4096

// Result bundles what one Run produces: the cover, the feasible fractional
// matching certifying it, and the round count.
type Result struct {
	// Cover marks the chosen vertices.
	Cover []bool
	// Duals is the feasible fractional matching raised alongside the cover;
	// by weak duality its sum lower-bounds OPT, certifying ratio ≤ 2.
	Duals []float64
	// Rounds is the number of synchronized dual-raising rounds executed
	// before the serial tail.
	Rounds int
}

// state is the solver's working memory: seven flat arrays allocated once at
// entry, none of which grow afterwards.
type state struct {
	g       *graph.Graph
	gap     []float64      // residual weight per vertex
	bid     []float64      // this round's uniform per-edge offer per vertex
	cover   []bool         // committed cover bits (stable within a round)
	sat     []bool         // saturation flags raised during the settle sweep
	liveDeg []int32        // uncovered-neighbor count, maintained incrementally
	live    []graph.Vertex // compacted list of undecided vertices
	x       []float64      // dual variable per edge
}

// Run executes the two-stage primal–dual algorithm on g with the given
// sweep parallelism (values < 1 mean GOMAXPROCS) and returns the cover with
// its dual certificate. The result is identical for every workers value.
// Cancellation is polled once per round and once before the tail.
func Run(ctx context.Context, g *graph.Graph, workers int, obs solver.Observer) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	s := &state{
		g:       g,
		gap:     make([]float64, n),
		bid:     make([]float64, n),
		cover:   make([]bool, n),
		sat:     make([]bool, n),
		liveDeg: make([]int32, n),
		live:    make([]graph.Vertex, 0, n),
		x:       make([]float64, g.NumEdges()),
	}
	copy(s.gap, g.Weights())
	liveEdges := 0
	for v := 0; v < n; v++ {
		if d := g.Degree(graph.Vertex(v)); d > 0 {
			s.liveDeg[v] = int32(d)
			s.live = append(s.live, graph.Vertex(v))
			liveEdges += d
		}
	}
	liveEdges /= 2

	rounds := 0
	for liveEdges >= roundCutoff {
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// Post this round's bids. liveDeg is maintained incrementally, so
		// this is O(live vertices), not an edge sweep.
		for _, v := range s.live {
			s.bid[v] = s.gap[v] / float64(s.liveDeg[v])
		}

		// Settle sweep (the parallel part): raise each live edge's dual by
		// the smaller endpoint bid and flag exhausted vertices.
		s.sweep(workers)
		rounds++

		// Commit: apply the saturation flags, retire the covered vertices'
		// edges from their neighbors' live degrees, and compact the live
		// list. Serial, so the next round's sweep reads a stable cover.
		for _, v := range s.live {
			if s.sat[v] {
				s.cover[v] = true
			}
		}
		for _, v := range s.live {
			if s.sat[v] {
				for _, u := range g.Neighbors(v) {
					if !s.cover[u] {
						s.liveDeg[u]--
					}
				}
			}
		}
		keep := s.live[:0]
		remaining := 0
		for _, v := range s.live {
			if !s.cover[v] && s.liveDeg[v] > 0 {
				keep = append(keep, v)
				remaining += int(s.liveDeg[v])
			}
		}
		s.live = keep
		remaining /= 2

		solver.Emit(obs, solver.Event{
			Kind:        solver.KindRound,
			Round:       rounds,
			ActiveEdges: int64(remaining),
		})

		// Productivity rule: another synchronized round must be earned by
		// this one retiring at least a quarter of the live edges; otherwise
		// the serial tail is cheaper. Instance-dependent only — workers
		// never influence the stage boundary.
		productive := remaining <= liveEdges-liveEdges/4
		liveEdges = remaining
		if !productive {
			break
		}
	}

	if len(s.live) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		verify.LocalRatio(g, s.live, s.gap, s.x, s.cover)
		solver.Emit(obs, solver.Event{
			Kind:        solver.KindFinalPhase,
			Round:       rounds,
			ActiveEdges: int64(liveEdges),
		})
	}
	return &Result{Cover: s.cover, Duals: s.x, Rounds: rounds}, nil
}

// sweep runs the settle kernel over the live list, split into contiguous
// chunks across workers. Every chunk writes only its own vertices' slots
// plus dual slots owned by exactly one endpoint, so the chunk boundaries
// cannot affect the result.
func (s *state) sweep(workers int) {
	m := len(s.live)
	if workers <= 1 || m < parallelCutoff {
		s.settleRange(0, m)
		return
	}
	chunk := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s.settleRange(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// settleRange is the synchronized-round kernel: for each live vertex it
// scans its CSR row in index order, charges min(bid[v], bid[u]) per live
// edge, and raises the edge dual from the smaller endpoint only (the
// single-writer rule that keeps chunked execution race-free and
// order-independent). A vertex whose every live edge charged its own bid is
// exactly saturated in exact arithmetic; the residual test backstops
// floating-point drift.
//
//mwvc:hotpath
func (s *state) settleRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		v := s.live[i]
		nbrs := s.g.Neighbors(v)
		ids := s.g.IncidentEdges(v)
		bv := s.bid[v]
		charge := 0.0
		full := true
		for j, u := range nbrs {
			if s.cover[u] {
				continue
			}
			d := bv
			if bu := s.bid[u]; bu < bv {
				d = bu
				full = false
			}
			charge += d
			if v < u {
				s.x[ids[j]] += d
			}
		}
		if full {
			s.sat[v] = true
			s.gap[v] = 0
			continue
		}
		rest := s.gap[v] - charge
		if rest > 0 {
			s.gap[v] = rest
		} else {
			s.sat[v] = true
			s.gap[v] = 0
		}
	}
}
