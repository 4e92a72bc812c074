package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/centralized"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Message tags distinguishing record kinds within a round's payloads.
const (
	tagVertex uint64 = 1
	tagEdge   uint64 = 2
	tagResult uint64 = 3
	tagScalar uint64 = 4
)

// Labels for derived randomness. Partition and threshold draws are pure
// functions of (seed, label, phase, vertex[, iteration]), which is what lets
// the coupling experiments replay a phase with identical randomness. The
// gathered schedule's group draw also takes the split attempt, so a split
// redraws a fresh partition.
const (
	labelPartition uint64 = 'P'
	labelGroup     uint64 = 'G'
	labelThreshold uint64 = 'T'
)

// thresholds returns phase's freeze thresholds T(v,t) for the local
// vertices of an instance whose global ids are ids: uniform in
// [1−4ε, 1−2ε] from (seed, 'T', phase, ids[v], t), or 1−3ε under
// FixedThresholds. They stay keyed by the global id, so every instance of a
// vertex draws the same thresholds. Line 3 runs as phase number Phases.
func (p *Params) thresholds(phase int, ids []graph.Vertex) centralized.ThresholdFunc {
	eps := p.Epsilon
	if p.FixedThresholds {
		return centralized.FixedThreshold(eps)
	}
	lo, hi, seed := 1-4*eps, 1-2*eps, p.Seed
	return func(v graph.Vertex, t int) float64 {
		return rng.UniformAt(seed, lo, hi, labelThreshold, uint64(phase), uint64(ids[v]), uint64(t))
	}
}

// noFreeze marks a vertex that stayed active through a local simulation.
const noFreeze = -1

// maxPhases caps the sampled-phase loop as a safety net: a run still
// sampling at this phase fails with a "no convergence" error.
const maxPhases = 64

// partitioned, when a test sets it, sees the driver after each phase's
// partition and before the phase's rounds; collected sees it after the
// collect round and before Lines (2h)–(2k).
var partitioned, collected func(*driver)

// maxSplits bounds how often the gathered schedule doubles and redraws an
// oversized partition before the phase falls back to the native schedule.
const maxSplits = 4

// schedule is how a phase's rounds are billed. Both schedules simulate the
// same LOCAL process (round compression, Assadi et al. 1709.04599, only
// changes the bill); they differ in the partition draw and the rounds spent.
type schedule int

const (
	// native draws the 'P' partition over NumMachines(d) machines and spends
	// 5 rounds: aggregate, share, scatter, simulate, collect.
	native schedule = iota
	// gathered draws the 'G' partition, splits it until every group fits the
	// gather budget, and spends 3 rounds: scatter with the piggybacked edge
	// count, simulate with machine 0's cross-check, collect.
	gathered
)

// GatherStats records what the gathered schedule did over a run.
type GatherStats struct {
	// Fallback reports that some phase's sampled groups could not fit the
	// gather budget even after the splits, so that phase ran on the native
	// schedule.
	Fallback bool
	// LocalRounds[i] is k — the number of simulated LOCAL rounds executed
	// inside each gathered group — for gathered phase i.
	LocalRounds []int
	// Groups[i] is the sampled group count of gathered phase i, after any
	// splits.
	Groups []int
	// Splits counts the partition redraws forced by the memory precheck
	// across the whole run.
	Splits int
}

// machScratch is one simulated machine's reusable working set: the
// co-located edges it ships as a home machine, the per-destination counters
// and arena-backed message buffers of the scatter and result rounds, and
// the decoded class. One machScratch per machine id lives for the whole
// run; messages are staged straight into the machine's outgoing arena
// (count → Reserve → Alloc → fill), so the per-phase MPC rounds allocate
// nothing at steady state and only arena growth on the first phase.
type machScratch struct {
	vCnt, eCnt []int32    // per-destination record counts, then write cursors
	vBuf, eBuf [][]uint64 // per-destination Alloc'd message buffers
	// edgeIDs lists this home's co-located E[V^high] edges (both endpoints
	// in one part) in increasing id order; partition fills it.
	edgeIDs []int32
	class   class
}

// ensure sizes the per-destination arrays for a fleet of `total` machines.
func (sc *machScratch) ensure(total int) {
	if sc.vCnt == nil {
		sc.vCnt = make([]int32, total)
		sc.eCnt = make([]int32, total)
		sc.vBuf = make([][]uint64, total)
		sc.eBuf = make([][]uint64, total)
	}
}

// Run executes Algorithm 2 on g with every phase on the native schedule and
// returns the cover, the finalized dual weights, and the per-phase
// measurements. The context is checked between phases, between cluster
// rounds, and inside the final centralized phase, so a cancellation or
// deadline ends the solve promptly with ctx.Err().
func Run(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
	return run(ctx, g, p, nil, nil)
}

// RunGathered executes Algorithm 2 with every phase on the gathered
// (round-compressed) schedule: 3 accounted rounds per phase instead of 5.
// gatherWords(n) is the share of a machine's budget one gathered group may
// occupy; nil means MemoryWords(n)/2. A phase whose groups still exceed it
// after the splits runs on the native schedule instead.
func RunGathered(ctx context.Context, g *graph.Graph, p Params, gatherWords func(n int) int64) (*Result, GatherStats, error) {
	var gs GatherStats
	res, err := run(ctx, g, p, &gs, gatherWords)
	return res, gs, err
}

// state is the algorithm state that outlives the sampled phases: the graph,
// the simulated cluster, the result being built, and the freeze
// bookkeeping. frozenIncident[v] accumulates Σ_{e∋v frozen} x_e so that
// w′(v) = w(v) − frozenIncident[v] (Line 2b); it is kept only for vertices
// outside the cover, the only ones residual reads. The residual degrees and
// the nonfrozen count are updated at every edge freeze (Line 2k). res.X
// holds finalized duals only: it is +0 on every nonfrozen edge, and an
// edge's entry is written once, when it freezes.
type state struct {
	ctx     context.Context
	g       *graph.Graph
	p       Params
	n, m    int
	ep      []graph.Vertex // flat endpoints: ep[2e], ep[2e+1] of edge e
	cluster *mpc.Cluster
	fleet   int
	res     *Result
	phase   int // the running phase, -1 outside phases

	edgeFrozen     []bool
	frozenIncident []float64
	resDeg         []int
	nonfrozen      int64
	dualSum        float64
}

// driver runs the sampled phases on a state. Its per-phase scratch is
// reused across phases and becomes garbage before the final phase. It keeps
// no per-edge array: an E[V^high] edge's Line 2c dual is
// min(shares[u], shares[v]), computed wherever it is read.
type driver struct {
	*state
	gs     *GatherStats // nil: every phase runs native
	budget int64        // gather budget per group

	// localIdx maps a global vertex id to its index on the simulation
	// machine that owns it this phase (-1 otherwise). The partition assigns
	// each vertex to exactly one machine and the scatter only ships
	// co-located edges, so concurrent machines touch disjoint entries; each
	// machine resets its own entries after its simulation. shares[v] is
	// v's Line 2c price and factor[v] its Line 2h growth factor. homeCount[h]
	// is home machine h's nonfrozen-edge count, recounted from edgeFrozen by
	// the partition's edge sweep.
	high                                    []bool
	wres, shares, factor                    []float64
	highIndex, partOf, freezeIter, localIdx []int32
	highList, newlyFrozen                   []graph.Vertex
	pow, bias                               []float64
	partWords, localEdges, homeCount        []int64
	scratch                                 []machScratch

	// The running phase's schedule and parameters.
	sched schedule
	deg   float64 // average residual degree d
	parts int     // simulation machines, or groups when gathered
	iters int
}

func run(ctx context.Context, g *graph.Graph, p Params, gs *GatherStats, gatherWords func(int) int64) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, errors.New("core: nil graph")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n, m := g.NumVertices(), g.NumEdges()
	res := &Result{Cover: make([]bool, n), X: make([]float64, m)}
	if n == 0 {
		return res, nil
	}

	// Cluster sizing: the simulation uses m = √d machines per phase, but the
	// cluster also holds the input edges (round-robin), so it needs enough
	// machines that no home machine's share exceeds a quarter of its memory.
	memWords := p.MemoryWords(n)
	maxEdgesPerHome := memWords / (4 * mpc.EdgeRecordWords)
	if maxEdgesPerHome < 1 {
		return nil, fmt.Errorf("core: machine memory %d words cannot hold any edges", memWords)
	}
	need := int((int64(m) + maxEdgesPerHome - 1) / maxEdgesPerHome)
	fleet := max(p.NumMachines(2*float64(m)/float64(n)), need, 2)
	// Machine 0 receives one scalar from every machine each phase (a single
	// fan-in-M aggregation level), 2·M words; cap the fleet so that always
	// fits in a quarter of its budget. The cap can only bind below the
	// edge-holding requirement when S² < 96·|E|, which Õ(n) memory always
	// avoids.
	if maxFleet := int(memWords / 8); fleet > maxFleet {
		if need > maxFleet {
			return nil, fmt.Errorf("core: memory %d words per machine cannot host both the input (%d machines needed) and the aggregation fan-in (max %d)", memWords, need, maxFleet)
		}
		fleet = maxFleet
	}
	cluster, err := mpc.NewCluster(mpc.Config{Machines: fleet, MemoryWords: memWords, Parallelism: p.Parallelism})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	s := &state{
		ctx: ctx, g: g, p: p, n: n, m: m, ep: g.EdgeEndpoints(),
		cluster: cluster, fleet: fleet, res: res, phase: -1,
		edgeFrozen:     make([]bool, m),
		frozenIncident: make([]float64, n),
		resDeg:         degrees(g),
		nonfrozen:      int64(m),
	}
	// The n-sized scratch arrays are carved out of one backing allocation
	// per element type.
	f64 := make([]float64, 3*n)
	i32 := make([]int32, 4*n)
	d := &driver{
		state: s, gs: gs, budget: memWords / 2,
		high:       make([]bool, n),
		wres:       f64[:n:n],
		shares:     f64[n : 2*n : 2*n],
		factor:     f64[2*n:],
		highIndex:  i32[:n:n],
		partOf:     i32[n : 2*n : 2*n],
		freezeIter: i32[2*n : 3*n : 3*n],
		localIdx:   i32[3*n:],
		partWords:  make([]int64, fleet),
		localEdges: make([]int64, fleet),
		homeCount:  make([]int64, fleet),
		scratch:    make([]machScratch, fleet),
	}
	if gatherWords != nil {
		d.budget = gatherWords(n)
	}
	for v := range d.localIdx {
		d.localIdx[v] = -1
	}
	if res.Phases, err = d.phases(); err != nil {
		return nil, err
	}
	if err := s.finalPhase(); err != nil {
		return nil, err
	}
	res.ClusterMetrics = cluster.Metrics()
	res.Rounds = res.ClusterMetrics.Rounds
	return res, nil
}

// degrees returns every vertex's degree in g: the residual degrees before
// anything froze.
func degrees(g *graph.Graph) []int {
	deg := make([]int, g.NumVertices())
	for v := range deg {
		deg[v] = g.Degree(graph.Vertex(v))
	}
	return deg
}

// event returns an observer event stamped with the running phase, the
// cumulative round count, the nonfrozen edges and the dual total.
func (s *state) event(kind solver.EventKind) solver.Event {
	return solver.Event{
		Kind:        kind,
		Phase:       s.phase,
		Round:       s.cluster.Metrics().Rounds,
		ActiveEdges: s.nonfrozen,
		DualBound:   s.dualSum,
	}
}

// emit sends a phase-scoped event carrying the phase's degree, machine and
// iteration counts.
func (d *driver) emit(kind solver.EventKind) {
	e := d.event(kind)
	e.Degree, e.Machines, e.Iterations = d.deg, d.parts, d.iters
	solver.Emit(d.p.Observer, e)
}

// step executes one accounted cluster round with a context check before it
// and a KindRound event after it, so the number of round events equals
// Result.Rounds exactly.
func (s *state) step(fn mpc.StepFunc) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if err := s.cluster.Round(fn); err != nil {
		return err
	}
	solver.Emit(s.p.Observer, s.event(solver.KindRound))
	return nil
}

// freezeEdge finalizes a nonfrozen edge at x and keeps the residual degrees
// and the nonfrozen count current (Line 2k).
func (s *state) freezeEdge(e int, x float64) {
	s.edgeFrozen[e] = true
	s.res.X[e] = x
	s.resDeg[s.ep[2*e]]--
	s.resDeg[s.ep[2*e+1]]--
	s.nonfrozen--
}

// freezeVertex puts v in the cover and finalizes its remaining nonfrozen
// edges at 0 (Line 2j). A vertex whose edges are all finalized already has
// nothing left to freeze, so its adjacency is not walked.
func (s *state) freezeVertex(v graph.Vertex) {
	s.res.Cover[v] = true
	if s.resDeg[v] == 0 {
		return
	}
	for _, e := range s.g.IncidentEdges(v) {
		if !s.edgeFrozen[e] {
			s.freezeEdge(int(e), 0)
		}
	}
}

// residual returns w′(v) and whether it is still positive. A vertex whose
// residual weight is exhausted (mathematically prevented by Line 2i; guarded
// against float drift) is frozen on the spot.
func (s *state) residual(v graph.Vertex) (float64, bool) {
	w := s.g.Weight(v) - s.frozenIncident[v]
	if w <= 1e-12*s.g.Weight(v) {
		s.freezeVertex(v)
		return 0, false
	}
	return w, true
}

// phases runs the sampled phases and returns how many ran.
func (d *driver) phases() (int, error) {
	p, n, eps := d.p, d.n, d.p.Epsilon
	stalls := 0
	for phase := 0; ; phase++ {
		if err := d.ctx.Err(); err != nil {
			return 0, err
		}
		d.phase = phase
		edgesBefore := d.nonfrozen
		deg := 2 * float64(d.nonfrozen) / float64(n)
		// Stall fallback: if sampled phases stop making progress (which the
		// ablations deliberately provoke — e.g. uniform initialization
		// resets the duals every phase and can never reach any threshold
		// within I iterations), hand the residual instance to the final
		// centralized phase instead of spinning. The memory charge there
		// still enforces that the fallback is legitimate.
		if deg <= p.SwitchThreshold(n) || stalls >= 3 {
			d.phase = -1
			return phase, nil
		}
		if phase >= maxPhases {
			return 0, fmt.Errorf("core: no convergence after %d phases (d=%.1f)", phase, deg)
		}

		// Lines (2a)/(2b): classify nonfrozen vertices and compute residual
		// weights for V^high.
		dGamma := math.Pow(deg, p.HighDegreeExponent)
		if p.DisableInactiveSplit {
			dGamma = 1 // every nonfrozen vertex with an edge is "high"
		}
		d.highList = d.highList[:0]
		numInactive, numNonfrozen := 0, 0
		for v := 0; v < n; v++ {
			d.high[v] = false
			if d.res.Cover[v] {
				continue
			}
			numNonfrozen++
			if d.resDeg[v] == 0 {
				continue
			}
			w, ok := d.residual(graph.Vertex(v))
			if !ok {
				continue
			}
			if float64(d.resDeg[v]) >= dGamma {
				d.high[v] = true
				d.wres[v] = w
				d.highIndex[v] = int32(len(d.highList))
				d.highList = append(d.highList, graph.Vertex(v))
			} else {
				numInactive++
			}
		}
		if len(d.highList) == 0 {
			// Cannot happen while d > 1 (some vertex has degree ≥ d ≥ d^γ),
			// but guard so a degenerate configuration falls through to the
			// final centralized phase instead of looping.
			d.phase = -1
			return phase, nil
		}

		// Lines (2c)–(2f): initial duals, the partition, and the phase's
		// machine and iteration counts.
		d.deg = deg
		if err := d.partition(); err != nil {
			return 0, err
		}
		if partitioned != nil {
			partitioned(d)
		}
		d.iters = max(1, p.PhaseIterations(d.parts, eps))
		d.bias = biasSchedule(d.bias, p.BiasCoefficient, p.BiasGrowth, d.parts, d.iters)
		d.emit(solver.KindPhaseStart)

		// Line (2g) on the cluster.
		if err := d.rounds(); err != nil {
			return 0, err
		}
		if collected != nil {
			collected(d)
		}
		if p.CollectCoupling {
			d.capture()
		}
		frozenAtSim, frozenAt2i := d.reconcile()

		if float64(d.nonfrozen) > 0.99*float64(edgesBefore) {
			stalls++
		} else {
			stalls = 0
		}
		totalLocal := int64(0)
		for _, c := range d.localEdges {
			totalLocal += c
		}
		d.res.PhaseStats = append(d.res.PhaseStats, PhaseStat{
			Phase:               phase,
			AvgDegree:           deg,
			NumNonfrozen:        numNonfrozen,
			NumHigh:             len(d.highList),
			NumInactive:         numInactive,
			Machines:            d.parts,
			Iterations:          d.iters,
			MaxMachineEdges:     int(slices.Max(d.localEdges)),
			TotalMachineEdges:   totalLocal,
			MaxMachineWords:     d.cluster.Metrics().MaxResidentWords,
			EdgesBefore:         edgesBefore,
			EdgesAfter:          d.nonfrozen,
			DecayBound:          float64(n)*deg*math.Pow(1-eps, float64(d.iters)) + float64(n)*dGamma,
			NewlyFrozenVertices: frozenAtSim + frozenAt2i,
			FrozenAtLine2i:      frozenAt2i,
		})
		if d.sched == gathered {
			d.gs.LocalRounds = append(d.gs.LocalRounds, d.iters)
			d.gs.Groups = append(d.gs.Groups, d.parts)
			d.emit(solver.KindCompress)
		}
		d.emit(solver.KindPhaseEnd)
	}
}

// partition prices Line (2c) and draws the phase's partition of V^high
// (Lines 2e/2f) under its schedule. Line 2c prices each V^high vertex once,
// shares[v] = w′(v)/d(v), and an E[V^high] edge's initial dual is the
// smaller share of its endpoints; under the uniform-init ablation every
// share is the uniform base, so the same min yields it. The dual is not
// stored: the scatter, the coupling capture and Lines 2h/2i compute it where
// they read it. The shares are computed here rather than while classifying:
// residual() can freeze a vertex there, which lowers the residual degree of
// neighbors classified before it.
//
// The partition is drawn before the edge sweep, so the sweep does all the
// per-edge work the phase's rounds need. The gathered schedule prices each
// group's induced instance (vertex and co-located edge records; the sweep
// prices the edges) and splits — doubles the group count, redraws and
// sweeps again — until the largest group fits the gather budget. When the
// splits run out, the phase runs on the native schedule.
func (d *driver) partition() error {
	p := d.p
	machines := min(max(p.NumMachines(d.deg), 1), d.fleet)
	d.sched, d.parts = native, machines
	if d.gs != nil {
		d.sched = gathered
		d.drawGroups(0)
	} else {
		d.drawPartition()
	}

	if p.UniformInit {
		wmin := math.Inf(1)
		for _, v := range d.highList {
			wmin = math.Min(wmin, d.wres[v])
		}
		base := wmin / float64(d.n)
		for _, v := range d.highList {
			d.shares[v] = base
		}
	} else {
		for _, v := range d.highList {
			d.shares[v] = d.wres[v] / float64(d.resDeg[v])
		}
	}
	d.sweep()

	for attempt := 0; d.sched == gathered; {
		if err := d.ctx.Err(); err != nil {
			return err
		}
		if slices.Max(d.partWords[:d.parts]) <= d.budget {
			return nil
		}
		if attempt >= maxSplits || d.parts >= d.fleet {
			d.gs.Fallback = true
			d.sched, d.parts = native, machines
			d.drawPartition()
		} else {
			d.parts = min(2*d.parts, d.fleet)
			attempt++
			d.gs.Splits++
			d.drawGroups(attempt)
		}
		d.sweep()
	}
	return nil
}

// sweep walks the edge ids 0..m−1 once, with the home index h = e mod fleet
// kept as a wrapping counter. It recounts each home machine's nonfrozen
// edges and files every co-located E[V^high] edge (both endpoints in one
// part) under its home in increasing id order, pricing it when the phase is
// gathered.
//
//mwvc:hotpath
func (d *driver) sweep() {
	d.clearHomes()
	clear(d.homeCount)
	priced := d.sched == gathered
	ep, high, partOf := d.ep, d.high, d.partOf
	homeCount, partWords, scratch := d.homeCount, d.partWords, d.scratch
	h := 0
	for e, frozen := range d.edgeFrozen {
		if !frozen {
			homeCount[h]++
			if u, v := ep[2*e], ep[2*e+1]; high[u] && high[v] {
				if pu := partOf[u]; pu == partOf[v] {
					sc := &scratch[h]
					sc.edgeIDs = append(sc.edgeIDs, int32(e))
					if priced {
						partWords[pu] += mpc.EdgeRecordWords
					}
				}
			}
		}
		if h++; h == d.fleet {
			h = 0
		}
	}
}

// drawPartition draws the native schedule's 'P' partition of V^high over
// d.parts machines.
func (d *driver) drawPartition() {
	for _, v := range d.highList {
		d.partOf[v] = int32(rng.ChooseAt(d.p.Seed, d.parts, labelPartition, uint64(d.phase), uint64(v)))
	}
}

// drawGroups draws the gathered schedule's group partition for one split
// attempt and prices its vertex records.
func (d *driver) drawGroups(attempt int) {
	clear(d.partWords[:d.parts])
	for _, v := range d.highList {
		gi := int32(rng.ChooseAt(d.p.Seed, d.parts, labelGroup, uint64(d.phase), uint64(attempt), uint64(v)))
		d.partOf[v] = gi
		d.partWords[gi] += mpc.VertexRecordWords
	}
}

// clearHomes empties every home machine's co-located edge list.
func (d *driver) clearHomes() {
	for i := range d.scratch {
		d.scratch[i].edgeIDs = d.scratch[i].edgeIDs[:0]
	}
}

// x0 is Line (2c)'s initial dual of the E[V^high] edge (u, v).
func (d *driver) x0(u, v graph.Vertex) float64 {
	return min(d.shares[u], d.shares[v])
}

// upperRow returns the part of v's row past v itself: the neighbors above v
// and the ids of the edges to them, the edges whose lower endpoint v is.
// Edge ids are lexicographic, so these ids are consecutive and increasing,
// and walking the upper rows of increasing vertices meets edge ids in
// increasing order.
func (s *state) upperRow(v graph.Vertex) ([]graph.Vertex, []graph.EdgeID) {
	nbrs := s.g.Neighbors(v)
	lo, _ := slices.BinarySearch(nbrs, v)
	return nbrs[lo:], s.g.IncidentEdges(v)[lo:]
}

// rounds runs the phase's cluster rounds under its schedule.
func (d *driver) rounds() error {
	d.cluster.ResetResident()
	if d.sched == native {
		// Rounds A0/A1 (aggregate + share): the average residual degree is
		// computed through the cluster — each home machine reports its
		// nonfrozen-edge count, a single fan-in-M tree level combines them
		// at machine 0 (the [GSZ11] O(1)-round aggregation primitive), and
		// machine 0 shares the result with the fleet, which checks it in the
		// scatter round.
		if err := d.step(d.aggregate); err != nil {
			return fmt.Errorf("core: phase %d degree aggregation: %w", d.phase, err)
		}
		if err := d.step(d.share); err != nil {
			return fmt.Errorf("core: phase %d degree share: %w", d.phase, err)
		}
	}
	if err := d.step(d.scatter); err != nil {
		return fmt.Errorf("core: phase %d scatter: %w", d.phase, err)
	}
	clear(d.localEdges)
	if err := d.step(d.simulate); err != nil {
		return fmt.Errorf("core: phase %d local simulation: %w", d.phase, err)
	}
	for _, v := range d.highList {
		d.freezeIter[v] = noFreeze
	}
	if err := d.step(d.collect); err != nil {
		return fmt.Errorf("core: phase %d collect: %w", d.phase, err)
	}
	return nil
}

// aggregate (native) sends each home machine's nonfrozen-edge count, as the
// partition's edge sweep recounted it, to machine 0.
func (d *driver) aggregate(mach *mpc.Machine) error {
	return mach.Send(0, []uint64{tagScalar, uint64(d.homeCount[mach.ID()])})
}

// checkCount is machine 0's cross-check of the aggregated nonfrozen-edge
// count against the driver's bookkeeping, which keeps the simulated data
// path load-bearing.
func (d *driver) checkCount(mach *mpc.Machine) (uint64, error) {
	total, seen := uint64(0), 0
	for _, msg := range mach.Inbox() {
		if len(msg.Data) == 2 && msg.Data[0] == tagScalar {
			total += msg.Data[1]
			seen++
		}
	}
	if seen != d.fleet {
		return 0, fmt.Errorf("core: machine 0 received %d degree reports, want %d", seen, d.fleet)
	}
	if total != uint64(d.nonfrozen) {
		return 0, fmt.Errorf("core: aggregated %d nonfrozen edges, driver has %d", total, d.nonfrozen)
	}
	return total, nil
}

// share (native) has machine 0 check the aggregated count and broadcast the
// average degree.
func (d *driver) share(mach *mpc.Machine) error {
	if mach.ID() != 0 {
		return nil
	}
	total, err := d.checkCount(mach)
	if err != nil {
		return err
	}
	dv := mpc.PutFloat(2 * float64(total) / float64(d.n))
	for dst := 0; dst < d.fleet; dst++ {
		if err := mach.Send(dst, []uint64{tagScalar, dv}); err != nil {
			return err
		}
	}
	return nil
}

// scatter routes each home machine's V^high vertex records and co-located
// E[V^high] edges (the list partition filed under it, each with its Line 2c
// dual) to the machine that simulates them. Under the native schedule it first checks the shared
// average degree; under the gathered one it piggybacks its nonfrozen-edge
// count to machine 0.
func (d *driver) scatter(mach *mpc.Machine) error {
	id := mach.ID()
	if d.sched == native {
		sawScalar := false
		for _, msg := range mach.Inbox() {
			if len(msg.Data) == 2 && msg.Data[0] == tagScalar {
				if got := mpc.GetFloat(msg.Data[1]); math.Abs(got-d.deg) > 1e-9*d.deg {
					return fmt.Errorf("core: machine %d received d=%v, phase uses %v", id, got, d.deg)
				}
				sawScalar = true
			}
		}
		if !sawScalar {
			return fmt.Errorf("core: machine %d missing the shared average degree", id)
		}
	}
	sc := &d.scratch[id]
	sc.ensure(d.fleet)
	vCnt, eCnt, vBuf, eBuf := sc.vCnt, sc.eCnt, sc.vBuf, sc.eBuf
	// Count records per destination, reserve the total arena volume, then
	// stage each destination's message in place — no intermediate buffers,
	// no copies.
	clear(vCnt[:d.parts])
	clear(eCnt[:d.parts])
	for v := id; v < d.n; v += d.fleet {
		if d.high[v] {
			vCnt[d.partOf[v]]++
		}
	}
	for _, e := range sc.edgeIDs {
		eCnt[d.partOf[d.ep[2*e]]]++
	}
	total := int64(0)
	if d.sched == gathered {
		total = 2 // the count report to machine 0
	}
	for dst := 0; dst < d.parts; dst++ {
		if vCnt[dst] > 0 {
			total += 1 + int64(vCnt[dst])*mpc.VertexRecordWords
		}
		if eCnt[dst] > 0 {
			total += 1 + int64(eCnt[dst])*mpc.EdgeRecordWords
		}
	}
	mach.Reserve(total)
	if d.sched == gathered {
		if err := mach.Send(0, []uint64{tagScalar, uint64(d.homeCount[id])}); err != nil {
			return err
		}
	}
	for dst := 0; dst < d.parts; dst++ {
		if vCnt[dst] > 0 {
			buf, err := mach.Alloc(dst, 1+int(vCnt[dst])*mpc.VertexRecordWords)
			if err != nil {
				return err
			}
			buf[0] = tagVertex
			vBuf[dst] = buf[1:]
		}
		if eCnt[dst] > 0 {
			buf, err := mach.Alloc(dst, 1+int(eCnt[dst])*mpc.EdgeRecordWords)
			if err != nil {
				return err
			}
			buf[0] = tagEdge
			eBuf[dst] = buf[1:]
		}
		vCnt[dst] = 0 // reuse as write cursor
		eCnt[dst] = 0
	}
	for v := id; v < d.n; v += d.fleet {
		if !d.high[v] {
			continue
		}
		dst := d.partOf[v]
		mpc.SetVertexRecord(vBuf[dst], int(vCnt[dst]), int32(v), d.wres[v])
		vCnt[dst]++
	}
	for _, e := range sc.edgeIDs {
		u, v := d.ep[2*e], d.ep[2*e+1]
		dst := d.partOf[u]
		mpc.SetEdgeRecord(eBuf[dst], int(eCnt[dst]), u, v, d.x0(u, v))
		eCnt[dst]++
	}
	return nil
}

// simulate has each simulation machine decode its class (charged against
// its memory budget — the Lemma 4.1 constraint), run Lines (2g i–iii) on
// it, and route the freeze results to each vertex's home machine. Under the
// gathered schedule machine 0 also checks the piggybacked counts.
func (d *driver) simulate(mach *mpc.Machine) error {
	id := mach.ID()
	inbox := mach.Inbox()
	if d.sched == gathered && id == 0 {
		if _, err := d.checkCount(mach); err != nil {
			return err
		}
	}
	if id >= d.parts {
		for _, msg := range inbox {
			if d.sched == native || len(msg.Data) == 0 || msg.Data[0] != tagScalar {
				return fmt.Errorf("core: non-simulation machine %d received records", id)
			}
		}
		return nil
	}
	sc := &d.scratch[id]
	c := &sc.class
	nV, nE := 0, 0
	for _, msg := range inbox {
		if len(msg.Data) == 0 {
			continue
		}
		switch msg.Data[0] {
		case tagVertex:
			nV += (len(msg.Data) - 1) / mpc.VertexRecordWords
		case tagEdge:
			nE += (len(msg.Data) - 1) / mpc.EdgeRecordWords
		}
	}
	c.reset(nV, nE)
	for _, msg := range inbox {
		if len(msg.Data) == 0 || msg.Data[0] != tagVertex {
			continue
		}
		body := msg.Data[1:]
		cnt, err := mpc.CheckRecordCount(body, mpc.VertexRecordWords)
		if err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			v, w := mpc.DecodeVertexRecord(body, i)
			d.localIdx[v] = int32(len(c.ids))
			c.ids = append(c.ids, v)
			c.w = append(c.w, w)
		}
	}
	for _, msg := range inbox {
		if len(msg.Data) == 0 || msg.Data[0] != tagEdge {
			continue
		}
		body := msg.Data[1:]
		cnt, err := mpc.CheckRecordCount(body, mpc.EdgeRecordWords)
		if err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			u, v, x0 := mpc.DecodeEdgeRecord(body, i)
			lu, lv := d.localIdx[u], d.localIdx[v]
			if lu < 0 || lv < 0 {
				return fmt.Errorf("core: machine %d received edge (%d,%d) without both endpoints", id, u, v)
			}
			c.ep = append(c.ep, lu, lv)
			c.x0 = append(c.x0, x0)
		}
	}
	if err := mach.Charge(c.Words()); err != nil {
		return err
	}
	d.localEdges[id] = int64(c.NumEdges())
	c.place()
	freeze, err := c.run(d.parts, d.iters, d.p.Epsilon, d.bias, d.p.thresholds(d.phase, c.ids))
	if err != nil {
		return err
	}
	// Stage the freeze results per home machine, reusing the scatter
	// counters/buffers (count → Reserve → Alloc → fill, as above).
	rCnt, rBuf := sc.vCnt, sc.vBuf
	clear(rCnt)
	for _, v := range c.ids {
		rCnt[int(v)%d.fleet]++
	}
	total := int64(0)
	for dst := 0; dst < d.fleet; dst++ {
		if rCnt[dst] > 0 {
			total += 1 + int64(rCnt[dst])*mpc.ResultRecordWords
		}
	}
	mach.Reserve(total)
	for dst := 0; dst < d.fleet; dst++ {
		if rCnt[dst] > 0 {
			buf, err := mach.Alloc(dst, 1+int(rCnt[dst])*mpc.ResultRecordWords)
			if err != nil {
				return err
			}
			buf[0] = tagResult
			rBuf[dst] = buf[1:]
		}
		rCnt[dst] = 0 // reuse as write cursor
	}
	for i, v := range c.ids {
		home := int(v) % d.fleet
		mpc.SetResultRecord(rBuf[home], int(rCnt[home]), v, freeze[i])
		rCnt[home]++
		d.localIdx[v] = -1
	}
	return nil
}

// collect has home machines record the freeze iteration of their vertices.
// Writes are disjoint by construction (one home per vertex), so the shared
// slice is race-free.
func (d *driver) collect(mach *mpc.Machine) error {
	for _, msg := range mach.Inbox() {
		if len(msg.Data) == 0 || msg.Data[0] != tagResult {
			return fmt.Errorf("core: machine %d: unexpected tag in collect round", mach.ID())
		}
		body := msg.Data[1:]
		cnt, err := mpc.CheckRecordCount(body, mpc.ResultRecordWords)
		if err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			v, fi := mpc.DecodeResultRecord(body, i)
			if int(v)%d.fleet != mach.ID() {
				return fmt.Errorf("core: result for vertex %d misrouted to machine %d", v, mach.ID())
			}
			d.freezeIter[v] = int32(fi)
		}
	}
	return nil
}

// capture records the phase for the coupling analysis: V^high with its
// partition and freeze iterations, and E[V^high] in increasing id order with
// its Line 2c duals.
func (d *driver) capture() {
	cp := CouplingPhase{
		Phase:          d.phase,
		Machines:       d.parts,
		Iterations:     d.iters,
		High:           append([]graph.Vertex(nil), d.highList...),
		ResidualWeight: make([]float64, len(d.highList)),
		MachineOf:      make([]int, len(d.highList)),
		FreezeIter:     make([]int, len(d.highList)),
	}
	for i, u := range d.highList {
		cp.ResidualWeight[i] = d.wres[u]
		cp.MachineOf[i] = int(d.partOf[u])
		cp.FreezeIter[i] = int(d.freezeIter[u])
		nbrs, _ := d.upperRow(u)
		for _, v := range nbrs {
			if d.high[v] {
				cp.Edges = append(cp.Edges, [2]int32{d.highIndex[u], d.highIndex[v]})
				cp.X0 = append(cp.X0, d.x0(u, v))
			}
		}
	}
	d.res.Coupling = append(d.res.Coupling, cp)
}

// reconcile applies Lines (2h)–(2k) to the collected freeze iterations and
// returns how many vertices froze in the simulation and at Line 2i. An
// E[V^high] edge (u, v) — an edge between two V^high vertices, nonfrozen
// since a frozen edge has an endpoint in the cover — gets the Line 2h
// weight x0(u, v)·min(f(u), f(v)), where f(v) = pow[t(v)] for the earliest
// freeze iteration t(v) (t′ = I when v stayed active). pow increases, so
// min(f(u), f(v)) is pow[min(t(u), t(v))]. The weight is computed where it
// is read: at Line 2i, in the freeze pass, and in the w′ gathers.
func (d *driver) reconcile() (frozenAtSim, frozenAt2i int) {
	iters := d.iters
	if cap(d.pow) < iters+1 {
		d.pow = make([]float64, iters+1)
	}
	pow := d.pow[:iters+1]
	pow[0] = 1
	growth := 1 / (1 - d.p.Epsilon)
	for t := 1; t <= iters; t++ {
		pow[t] = pow[t-1] * growth
	}
	for _, v := range d.highList {
		t := iters
		if fi := d.freezeIter[v]; fi >= 0 {
			t = int(fi)
		}
		d.factor[v] = pow[t]
	}

	// Freeze set 1: vertices frozen by their local simulation. Line (2i):
	// an active vertex whose incident E[V^high] weight already reaches its
	// residual weight freezes too, so residuals stay nonnegative in later
	// phases.
	d.newlyFrozen = d.newlyFrozen[:0]
	for _, v := range d.highList {
		if d.freezeIter[v] >= 0 {
			d.newlyFrozen = append(d.newlyFrozen, v)
		}
	}
	frozenAtSim = len(d.newlyFrozen)
	for _, v := range d.highList {
		if d.freezeIter[v] < 0 && d.highSum(v) >= d.wres[v]*(1-1e-12) {
			d.newlyFrozen = append(d.newlyFrozen, v)
		}
	}
	frozenAt2i = len(d.newlyFrozen) - frozenAtSim
	for _, v := range d.newlyFrozen {
		d.res.Cover[v] = true
	}

	// Finalize: E[V^high] edges with a covered endpoint freeze at their
	// Line (2h) weight and the rest stay nonfrozen at +0. Each V^high vertex
	// left outside the cover then adds its newly frozen edges to its w′
	// bookkeeping, and Line (2j) freezes the rest of a covered vertex's
	// edges at 0.
	d.freeze()
	for _, v := range d.highList {
		if !d.res.Cover[v] {
			d.gatherFrozen(v)
		}
	}
	for _, v := range d.newlyFrozen {
		d.freezeVertex(v)
	}
	return frozenAtSim, frozenAt2i
}

// highSum is Line (2i)'s sum at v: the Line (2h) weights of v's E[V^high]
// edges, added in v's row order. A row is in increasing edge-id order, so
// the sum adds the terms in the order of one walk over E[V^high] by id.
func (d *driver) highSum(v graph.Vertex) float64 {
	high, shares, f := d.high, d.shares, d.factor
	sv, fv := shares[v], f[v]
	y := 0.0
	for _, u := range d.g.Neighbors(v) {
		if high[u] {
			y += min(shares[u], sv) * min(f[u], fv)
		}
	}
	return y
}

// freeze is the finalize pass: one walk over the upper rows of V^high,
// which meets every E[V^high] edge once and in increasing id order. Each
// edge with an endpoint in the cover freezes at its Line (2h) weight, with
// the residual degrees, the nonfrozen count and the dual total kept as
// freezeEdge keeps them (the totals in locals, the dual total added in id
// order).
//
//mwvc:hotpath
func (d *driver) freeze() {
	x, frozen, resDeg := d.res.X, d.edgeFrozen, d.resDeg
	cover, high, shares, f := d.res.Cover, d.high, d.shares, d.factor
	nonfrozen, dualSum := d.nonfrozen, d.dualSum
	for _, u := range d.highList {
		su, fu, cu := shares[u], f[u], cover[u]
		nbrs, edges := d.upperRow(u)
		froze := 0
		for i, v := range nbrs {
			if !high[v] || !cu && !cover[v] {
				continue
			}
			e := edges[i]
			xe := min(su, shares[v]) * min(fu, f[v])
			x[e] = xe
			frozen[e] = true
			resDeg[v]--
			froze++
			dualSum += xe
		}
		resDeg[u] -= froze
		nonfrozen -= int64(froze)
	}
	d.nonfrozen, d.dualSum = nonfrozen, dualSum
}

// gatherFrozen adds the weights of v's E[V^high] edges that froze in this
// phase (those to a covered V^high vertex) to frozenIncident[v], in row
// order, which is the edge-id order the freeze pass met them in.
func (d *driver) gatherFrozen(v graph.Vertex) {
	x, cover, high := d.res.X, d.res.Cover, d.high
	edges := d.g.IncidentEdges(v)
	inc := d.frozenIncident[v]
	for i, u := range d.g.Neighbors(v) {
		if high[u] && cover[u] {
			inc += x[edges[i]]
		}
	}
	d.frozenIncident[v] = inc
}

// finalPhase is Line (3): the residual instance moves to one machine (the
// gather is one more round, and the memory charge enforces that it fits)
// and the centralized algorithm finishes it there, on the residual graph.
//
// The residual instance is a class: the active vertices and the nonfrozen
// edges (a nonfrozen edge has both endpoints active), with w′ as vertex
// weights and local ids assigned in increasing global order. The relabeling
// is monotone and edge ids are lexicographic, so residual edge i is the
// i-th nonfrozen edge and every row, placed in edge order, keeps its
// neighbor order: the centralized run performs the same float operations in
// the same order as on the whole graph with the frozen part masked out.
// When nothing froze, g itself is the residual graph.
func (s *state) finalPhase() error {
	n, eps := s.n, s.p.Epsilon
	verts := make([]graph.Vertex, 0, n) // residual vertex → global vertex
	wres := make([]float64, 0, n)
	for v := 0; v < n; v++ {
		if s.res.Cover[v] {
			continue
		}
		if w, ok := s.residual(graph.Vertex(v)); ok {
			verts = append(verts, graph.Vertex(v))
			wres = append(wres, w)
		}
	}
	finalEdges := s.nonfrozen
	s.res.FinalPhaseEdges = finalEdges
	s.cluster.ResetResident()
	err := s.step(func(mach *mpc.Machine) error {
		if mach.ID() == 0 {
			return mach.Charge(finalEdges*mpc.EdgeRecordWords + int64(len(verts))*mpc.VertexRecordWords)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: final gather: %w", err)
	}

	// When nothing froze, g is already the residual graph: no vertex is in
	// the cover and nothing was subtracted, so every vertex is active with
	// w′ = w and verts is the identity.
	inst := centralized.Instance{G: s.g}
	var edges []int32 // residual edge → global edge; nil while inst.G is g
	if finalEdges < int64(s.m) {
		inst.G, edges = s.residualClass(verts, wres)
	}
	if s.p.UniformInit && len(wres) > 0 {
		// InitUniform would divide by the residual vertex count; Line 3's
		// base is w′_min over the active vertices divided by n.
		base := slices.Min(wres) / float64(n)
		inst.X0 = make([]float64, inst.G.NumEdges())
		for i := range inst.X0 {
			inst.X0[i] = base
		}
	}
	cres, err := centralized.Run(s.ctx, inst, centralized.Options{Epsilon: eps, Threshold: s.p.thresholds(s.res.Phases, verts)})
	if err != nil {
		return fmt.Errorf("core: final centralized phase: %w", err)
	}
	s.res.FinalPhaseIterations = cres.Iterations
	// The LOCAL algorithm runs inside one machine, so its iterations cost no
	// additional communication rounds.
	for i, in := range cres.Cover {
		if in {
			s.res.Cover[verts[i]] = true
		}
	}
	for i, x := range cres.X {
		e := i
		if edges != nil {
			e = int(edges[i])
		}
		s.freezeEdge(e, x)
		s.dualSum += x
	}
	e := s.event(solver.KindFinalPhase)
	e.Iterations = cres.Iterations
	solver.Emit(s.p.Observer, e)
	return nil
}

// residualClass returns the class of the active vertices verts (increasing)
// with weights wres, whose edges are the nonfrozen edges, and the global id
// of each of its edges.
func (s *state) residualClass(verts []graph.Vertex, wres []float64) (*class, []int32) {
	local := make([]graph.Vertex, s.n)
	for i, v := range verts {
		local[v] = graph.Vertex(i)
	}
	c := &class{ids: verts, w: wres, ep: make([]graph.Vertex, 0, 2*s.nonfrozen)}
	edges := make([]int32, 0, s.nonfrozen)
	for e, frozen := range s.edgeFrozen {
		if !frozen {
			edges = append(edges, int32(e))
			c.ep = append(c.ep, local[s.ep[2*e]], local[s.ep[2*e+1]])
		}
	}
	c.place()
	return c, edges
}
