// Package improve implements the anytime local-search improvement stage of
// the solve pipeline: it takes any valid vertex cover of a CSR graph and
// monotonically reduces its weight under a wall-clock budget and context
// cancellation, FastVC-style (Cai, arXiv:1509.05870), adapted to vertex
// weights.
//
// Two move families run over flat per-vertex state — no maps, no mutable
// graph copy:
//
//   - Redundant removal: a cover vertex whose incident edges are all covered
//     by their other endpoint contributes nothing; dropping it is a pure
//     weight win. Candidates are processed heaviest-first. Removal only
//     destroys redundancy (the shared-edge counters decrease), so one sorted
//     pass reaches a cover in which every vertex covers at least one edge
//     alone.
//   - Weighted two-improvement swaps: for a cover vertex u, the edges only u
//     covers run exactly to its non-cover neighbors, so removing u while
//     inserting N(u)\C keeps the cover valid; it is accepted when the insert
//     cost is strictly below w(u). Candidates are drawn by best-from-multiple
//     selection (BMS) from the seeded RNG, and each accepted swap triggers a
//     local redundancy sweep around the inserted vertices.
//
// Every accepted move strictly decreases the cover weight and the cover is
// valid between moves, so the state is its own best-so-far snapshot: on
// budget expiry or cancellation Run simply stops and returns the current
// cover — never a worse or invalid one. The dual certificate of the solve
// is untouched, so the certified ratio of the pipeline only tightens.
//
// Determinism: all tie-breaking (equal weights, equal gains) uses priorities
// derived from the seeded RNG, and the RNG is consumed in a fixed per-step
// sequence. Two runs with the same seed that execute the same number of
// steps produce identical covers; a run that converges (reaches a state
// with no improving move) before the budget expires is therefore fully
// reproducible regardless of wall-clock speed.
package improve

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/verify"
)

// sampleSize is the number of cover vertices the swap loop samples per
// step (FastVC's best-from-multiple-selection width).
const sampleSize = 64

// Options configures one improvement run.
type Options struct {
	// Budget is the wall-clock budget for the whole run, measured from the
	// Run call. Zero or negative means no budget of its own — the run then
	// ends only at a local optimum or on context cancellation.
	Budget time.Duration
	// Seed drives candidate sampling and all tie-breaking; same seed and
	// step count ⇒ same output.
	Seed uint64
	// OnStep, when non-nil, is invoked synchronously after every accepted
	// move with the 1-based accepted-move count and the cover weight after
	// the move. It must be fast; the caller turns these into observer
	// events.
	OnStep func(step int, weight float64)
}

// Stats reports what one improvement run did; it travels through the solve
// pipeline into mwvc.Solution so every layer can account for the stage.
type Stats struct {
	// WeightBefore and WeightAfter are the cover weights entering and
	// leaving the run, each recomputed as a full ascending-id sweep over the
	// instance (not the incrementally maintained running weight), so they
	// are bit-for-bit comparable with verify.CoverWeight on the same graph.
	WeightBefore float64 `json:"weight_before"`
	WeightAfter  float64 `json:"weight_after"`
	// RedundantRemoved counts vertices dropped by redundancy elimination
	// (the initial pass and the local sweeps after swaps); Swaps counts
	// accepted two-improvement swaps. Steps is their total — the number of
	// accepted strictly-improving moves.
	RedundantRemoved int `json:"redundant_removed,omitempty"`
	Swaps            int `json:"swaps,omitempty"`
	Steps            int `json:"steps,omitempty"`
	// TimeToFirstNS is the wall-clock time from the start of the run to the
	// first accepted move, 0 when no move was accepted.
	TimeToFirstNS int64 `json:"time_to_first_ns,omitempty"`
	// ImproveNS is the wall-clock cost of the whole run.
	ImproveNS int64 `json:"improve_ns,omitempty"`
	// Converged reports that the run reached a local optimum (no redundant
	// vertex, no improving swap) before the budget or context stopped it;
	// a converged run is fully deterministic for its seed.
	Converged bool `json:"converged,omitempty"`
}

// Run improves a valid cover of g under opts and returns the improved cover
// (a fresh slice; the input is not mutated) together with the run's
// accounting. The only error condition is an invalid input: a cover slice of
// the wrong length or one that leaves an edge uncovered. Budget expiry and
// context cancellation are not errors — the anytime contract is that Run
// then returns the best (= current) cover reached so far, which is always
// valid and never heavier than the input.
func Run(ctx context.Context, g *graph.Graph, cover []bool, opts Options) ([]bool, *Stats, error) {
	if len(cover) != g.NumVertices() {
		return nil, nil, fmt.Errorf("improve: cover length %d, want %d", len(cover), g.NumVertices())
	}
	if ok, e := verify.IsCover(g, cover); !ok {
		u, v := g.Edge(e)
		return nil, nil, fmt.Errorf("improve: input is not a cover: edge (%d,%d) uncovered", u, v)
	}
	start := time.Now()
	st := &Stats{WeightBefore: verify.CoverWeight(g, cover)}
	s := newState(ctx, g, cover, opts, start, st)
	if !s.stoppedNow() {
		s.eliminateRedundant(s.initialRedundant())
	}
	if !s.stoppedNow() {
		s.swapLoop()
	}
	st.Steps = st.RedundantRemoved + st.Swaps
	st.WeightAfter = verify.CoverWeight(g, s.in)
	st.ImproveNS = time.Since(start).Nanoseconds()
	return s.in, st, nil
}

// state is the mutable local-search state over one immutable graph: the
// cover mask, the per-vertex shared-edge counters (the edge-incidence
// "covered by the other endpoint too" count), the per-vertex insert cost of
// the two-improvement swap, and the cover membership list for O(1) sampling.
type state struct {
	g    *graph.Graph
	ctx  context.Context
	opts Options
	st   *Stats

	start    time.Time
	deadline time.Time // zero when no budget
	done     bool      // budget or context fired; stop accepting work
	polls    uint

	in []bool // cover membership
	// shared[v] counts v's incident edges whose other endpoint is in the
	// cover (= |N(v) ∩ C|). A cover vertex u is redundant iff
	// shared[u] == deg(u): every incident edge is covered from the other
	// side too.
	shared []int32
	// outW[v] is Σ w(x) over x ∈ N(v) \ C — for a cover vertex the exact
	// insert cost of the two-improvement swap, so the swap gain
	// w(u) − outW[u] is an O(1) read.
	outW []float64
	// weight is the running cover weight, updated incrementally per move and
	// reported through OnStep. (Stats recomputes the end weights exactly.)
	weight float64

	// coverList holds the cover members in arbitrary order with pos[v] the
	// index of v (−1 outside the cover): O(1) membership updates, O(1)
	// uniform sampling.
	coverList []graph.Vertex
	pos       []int32

	// prio[v] is a per-run random priority from the seeded RNG, the
	// deterministic tie-breaker for equal weights and equal gains.
	prio []uint64
	rnd  *rng.Source

	scratch []graph.Vertex // reusable candidate buffer
}

func newState(ctx context.Context, g *graph.Graph, cover []bool, opts Options, start time.Time, st *Stats) *state {
	n := g.NumVertices()
	s := &state{
		g: g, ctx: ctx, opts: opts, st: st, start: start,
		in:     append([]bool(nil), cover...),
		shared: make([]int32, n),
		outW:   make([]float64, n),
		pos:    make([]int32, n),
		prio:   make([]uint64, n),
		rnd:    rng.New(rng.Mix(opts.Seed, 0x1a5e)),
	}
	if opts.Budget > 0 {
		s.deadline = start.Add(opts.Budget)
	}
	for v := 0; v < n; v++ {
		s.pos[v] = -1
		s.prio[v] = rng.Mix(opts.Seed, 0x9d, uint64(v))
	}
	for v := 0; v < n; v++ {
		if s.in[v] {
			s.pos[v] = int32(len(s.coverList))
			s.coverList = append(s.coverList, graph.Vertex(v))
			s.weight += g.Weight(graph.Vertex(v))
		}
		var sh int32
		var ow float64
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			if s.in[u] {
				sh++
			} else {
				ow += g.Weight(u)
			}
		}
		s.shared[v] = sh
		s.outW[v] = ow
	}
	return s
}

// stopped reports (and latches) whether the budget or the context has
// fired; the time and ctx checks are amortized over calls.
func (s *state) stopped() bool {
	if s.done {
		return true
	}
	s.polls++
	if s.polls&0x3F != 0 {
		return false
	}
	if s.ctx.Err() != nil || (!s.deadline.IsZero() && time.Now().After(s.deadline)) {
		s.done = true
	}
	return s.done
}

// stoppedNow is the unamortized form, used at phase boundaries and after
// accepted moves so cancellation lands between moves, never inside one.
func (s *state) stoppedNow() bool {
	if s.done {
		return true
	}
	if s.ctx.Err() != nil || (!s.deadline.IsZero() && time.Now().After(s.deadline)) {
		s.done = true
	}
	return s.done
}

// add inserts v into the cover and updates the flat counters of its
// neighborhood. O(deg v).
func (s *state) add(v graph.Vertex) {
	s.in[v] = true
	s.pos[v] = int32(len(s.coverList))
	s.coverList = append(s.coverList, v)
	s.weight += s.g.Weight(v)
	w := s.g.Weight(v)
	for _, u := range s.g.Neighbors(v) {
		s.shared[u]++
		s.outW[u] -= w
	}
}

// remove drops v from the cover and updates the neighborhood counters.
// O(deg v). The caller guarantees validity (v redundant, or its uncovered
// edges re-covered first).
func (s *state) remove(v graph.Vertex) {
	s.in[v] = false
	last := len(s.coverList) - 1
	moved := s.coverList[last]
	s.coverList[s.pos[v]] = moved
	s.pos[moved] = s.pos[v]
	s.coverList = s.coverList[:last]
	s.pos[v] = -1
	s.weight -= s.g.Weight(v)
	w := s.g.Weight(v)
	for _, u := range s.g.Neighbors(v) {
		s.shared[u]--
		s.outW[u] += w
	}
}

// accepted records one strictly-improving move and streams it to OnStep.
func (s *state) accepted() {
	if s.st.TimeToFirstNS == 0 {
		s.st.TimeToFirstNS = time.Since(s.start).Nanoseconds()
		if s.st.TimeToFirstNS == 0 {
			s.st.TimeToFirstNS = 1 // sub-resolution clock; "a move happened" must survive
		}
	}
	if s.opts.OnStep != nil {
		s.opts.OnStep(s.st.RedundantRemoved+s.st.Swaps, s.weight)
	}
}

// redundant reports whether cover vertex v covers no edge alone.
func (s *state) redundant(v graph.Vertex) bool {
	return s.in[v] && s.shared[v] == int32(s.g.Degree(v))
}

// initialRedundant collects every redundant cover vertex.
func (s *state) initialRedundant() []graph.Vertex {
	var cand []graph.Vertex
	for _, v := range s.coverList {
		if s.redundant(v) {
			cand = append(cand, v)
		}
	}
	return cand
}

// eliminateRedundant drops redundant candidates heaviest-first (ties by RNG
// priority, then id). Removal only decreases shared counters, so it never
// creates new redundancy among vertices outside the candidate set — one
// sorted pass with a re-check at pop suffices.
func (s *state) eliminateRedundant(cand []graph.Vertex) {
	if len(cand) == 0 {
		return
	}
	sort.Slice(cand, func(i, j int) bool {
		vi, vj := cand[i], cand[j]
		wi, wj := s.g.Weight(vi), s.g.Weight(vj)
		if math.Float64bits(wi) != math.Float64bits(wj) {
			return wi > wj
		}
		if s.prio[vi] != s.prio[vj] {
			return s.prio[vi] > s.prio[vj]
		}
		return vi < vj
	})
	for _, v := range cand {
		if s.stopped() {
			return
		}
		if !s.redundant(v) {
			continue
		}
		s.remove(v)
		s.st.RedundantRemoved++
		s.accepted()
	}
}

// gain is the weight saved by the two-improvement swap at cover vertex u:
// remove u, insert every non-cover neighbor. Positive means strictly
// improving.
func (s *state) gain(u graph.Vertex) float64 {
	return s.g.Weight(u) - s.outW[u]
}

// swapLoop runs BMS-sampled two-improvement swaps until the budget expires,
// the context fires, or a full deterministic sweep certifies a local
// optimum.
//
//mwvc:hotpath
func (s *state) swapLoop() {
	// After this many consecutive sample steps without an improving
	// candidate, fall back to one exhaustive sweep to either find a move the
	// sampler keeps missing or certify convergence.
	const failLimit = 4 * sampleSize
	fails := 0
	for {
		if s.stoppedNow() {
			return
		}
		if len(s.coverList) == 0 {
			s.st.Converged = true
			return
		}
		if fails >= failLimit {
			if !s.sweep() {
				s.st.Converged = !s.done
				return
			}
			fails = 0
			continue
		}
		if u, ok := s.sample(); ok {
			s.applySwap(u)
			fails = 0
		} else {
			fails++
		}
	}
}

// sample draws up to sampleSize cover vertices from the seeded RNG and
// returns the one with the best positive gain (ties by RNG priority, then
// id).
//
//mwvc:hotpath
func (s *state) sample() (graph.Vertex, bool) {
	var best graph.Vertex = -1
	bestGain := 0.0
	for i := 0; i < sampleSize; i++ {
		u := s.coverList[s.rnd.Intn(len(s.coverList))]
		g := s.gain(u)
		if g <= 0 {
			continue
		}
		if best < 0 || g > bestGain ||
			(math.Float64bits(g) == math.Float64bits(bestGain) &&
				(s.prio[u] > s.prio[best] || (s.prio[u] == s.prio[best] && u < best))) {
			best, bestGain = u, g
		}
	}
	return best, best >= 0
}

// sweep scans the whole cover in ascending id order and applies the first
// improving swap (first-improvement). It returns whether it accepted a
// move; a false return with the run still live certifies a local optimum:
// no redundant vertex (gain would be w(u) > 0) and no improving swap exist.
//
//mwvc:hotpath
func (s *state) sweep() bool {
	n := s.g.NumVertices()
	for v := 0; v < n; v++ {
		if s.stopped() {
			return false
		}
		if s.in[v] && s.gain(graph.Vertex(v)) > 0 {
			s.applySwap(graph.Vertex(v))
			return true
		}
	}
	return false
}

// applySwap executes the two-improvement at u atomically with respect to
// cancellation: insert every non-cover neighbor, drop u, then sweep the
// inserted vertices' cover neighborhoods for new redundancy. The cover is
// valid after every individual add/remove, so a stop signal observed after
// the swap still leaves a valid, strictly lighter cover.
//
//mwvc:hotpath
func (s *state) applySwap(u graph.Vertex) {
	s.scratch = s.scratch[:0]
	for _, v := range s.g.Neighbors(u) {
		if !s.in[v] {
			s.scratch = append(s.scratch, v)
		}
	}
	for _, v := range s.scratch {
		s.add(v)
	}
	s.remove(u)
	s.st.Swaps++
	s.accepted()

	// Inserting S may have made cover vertices around S redundant (their
	// shared counters grew); collect and drop them. u itself cannot be a
	// candidate (just removed), and removals cascade no new candidates.
	var cand []graph.Vertex
	for _, v := range s.scratch {
		for _, x := range s.g.Neighbors(v) {
			if s.in[x] && s.redundant(x) && s.pos[x] >= 0 {
				cand = appendUnique(cand, x)
			}
		}
	}
	s.eliminateRedundant(cand)
}

// appendUnique appends v if it is not already present; candidate sets here
// are tiny (a swap neighborhood), so the linear scan beats any set
// structure.
func appendUnique(list []graph.Vertex, v graph.Vertex) []graph.Vertex {
	for _, x := range list {
		if x == v {
			return list
		}
	}
	return append(list, v)
}
