package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/improve"
	"repro/internal/reduce"
	"repro/internal/solver"
	"repro/internal/verify"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the index of the enclosing span (-1 for an operation's
// root). Times are nanoseconds since the recorder started.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of a traced run in memory; they are written out
// only when the run ends. It is safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its index.
func (r *recorder) add(op int, name string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Op: op, Name: name, Parent: parent,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return len(r.spans) - 1
}

// begin opens a span now; end closes it.
func (r *recorder) begin(op int, name string, parent int) int {
	now := time.Now()
	return r.add(op, name, parent, now, now)
}

func (r *recorder) end(id int) {
	now := time.Now()
	r.mu.Lock()
	r.spans[id].End = now.Sub(r.epoch).Nanoseconds()
	r.mu.Unlock()
}

// durations returns the duration in ms of every span with the given name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes checks that every span lies inside its parent and returns, per
// span name, the summed self time: each span's duration minus the part its
// children cover. Children of one span never overlap, so that part is the
// sum of their durations.
func selfTimes(spans []span) (map[string]time.Duration, error) {
	child := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return nil, fmt.Errorf("span %d (%s) has parent %d recorded after it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
		}
		child[s.Parent] += s.dur()
	}
	self := map[string]time.Duration{}
	for i, s := range spans {
		d := s.dur() - child[i]
		if d < 0 {
			return nil, fmt.Errorf("span %d (%s) has negative self time %v", i, s.Name, d)
		}
		self[s.Name] += d
	}
	return self, nil
}

// printSelfTimes writes one line per span name: total self time, its share
// of all self time, and the number of spans.
func printSelfTimes(w io.Writer, workload string, spans []span) error {
	self, err := selfTimes(spans)
	if err != nil {
		return err
	}
	count := map[string]int{}
	var total time.Duration
	for _, s := range spans {
		count[s.Name]++
	}
	names := make([]string, 0, len(self))
	for name, d := range self {
		names = append(names, name)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "# %s self time by layer (traced run)\n", workload)
	for _, name := range names {
		fmt.Fprintf(w, "%-16s self %-26s %10.1f ms  %5.1f%%  spans=%d\n",
			workload, name, ms(self[name]), 100*frac(float64(self[name]), float64(total)), count[name])
	}
	return nil
}

// solveCounts accumulates what the solver's observer events report for the
// traced solves of one run.
type solveCounts struct {
	phases, rounds, finalIters []float64 // per mpc or mpc-compress solve
	pdfastRounds               []float64 // per pdfast solve
	compressSolves, fallback   int
	compressRounds             int       // KindCompress events
	localRounds                int       // simulated LOCAL rounds over those events
	compressMS                 []float64 // phase start → KindCompress, per compressed round
}

// spanObserver turns the solver's event stream into child spans of the solve
// span: one per sampled phase, one per accounted round (from the previous
// event to the round's completion) and one for the final phase.
type spanObserver struct {
	rec                     *recorder
	op, solve               int
	phaseName, roundName    string
	finalName               string
	phase                   int
	last, phaseAt           time.Time
	phases, rounds, compRds int
	finalIters              int
	counts                  *solveCounts
}

func (o *spanObserver) OnEvent(e solver.Event) {
	now := time.Now()
	parent := o.solve
	if o.phase >= 0 {
		parent = o.phase
	}
	switch e.Kind {
	case solver.KindPhaseStart:
		o.phase = o.rec.add(o.op, o.phaseName, o.solve, now, now)
		o.phaseAt = now
		o.phases++
	case solver.KindRound:
		o.rec.add(o.op, o.roundName, parent, o.last, now)
		o.rounds++
	case solver.KindCompress:
		o.counts.compressMS = append(o.counts.compressMS, ms(now.Sub(o.phaseAt)))
		o.counts.compressRounds++
		o.counts.localRounds += e.Iterations
		o.compRds++
	case solver.KindPhaseEnd:
		if o.phase >= 0 {
			o.rec.end(o.phase)
			o.phase = -1
		}
	case solver.KindFinalPhase:
		o.rec.add(o.op, o.finalName, o.solve, o.last, now)
		o.finalIters += e.Iterations
	}
	o.last = now
}

// stagedOutcome is the verified result of one traced solve.
type stagedOutcome struct {
	weight, bound, kernelFrac float64
}

// stagedSolve runs the facade's pipeline one stage at a time through the
// layers' public entry points, recording a span per stage under parent:
// reduce.Run, the registered solver on the kernel (with an observer that
// records phase, round and final-phase spans), improve.Run when a budget is
// given, Trace.Lift and LiftDuals, then verify.IsCover and
// verify.NewLiftedCertificate. Its Weight and Bound equal mwvc.Solve's bit
// for bit whenever no improvement budget is set.
func stagedSolve(ctx context.Context, rec *recorder, op, parent int, g *graph.Graph, algo string,
	cfg solver.Config, budget time.Duration, counts *solveCounts) (*stagedOutcome, error) {
	reg, ok := solver.Lookup(algo)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
	sp := rec.begin(op, "reduce", parent)
	red, err := reduce.Run(ctx, g)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("reduce: %w", err)
	}
	work, tr := g, red.Trace
	if tr != nil {
		work = red.Kernel
	}
	res := &stagedOutcome{kernelFrac: frac(float64(work.NumEdges()), float64(g.NumEdges()))}

	out := &solver.Outcome{Cover: []bool{}, Exact: true}
	if tr == nil || work.NumVertices() > 0 {
		sp = rec.begin(op, "solve", parent)
		obs := &spanObserver{rec: rec, op: op, solve: sp, phase: -1, last: time.Now(), counts: counts,
			phaseName: "core.phase", roundName: "mpc.round", finalName: "centralized.final_phase"}
		switch algo {
		case "mpc-compress":
			obs.phaseName = "compress.phase"
		case "pdfast", "pdfast-par":
			obs.roundName, obs.finalName = "pdfast.round", "pdfast.tail"
		}
		cfg.Observer = obs
		out, err = reg.Solver.Solve(ctx, work, cfg)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("solve: %w", err)
		}
		if obs.roundName == "pdfast.round" {
			counts.pdfastRounds = append(counts.pdfastRounds, float64(obs.rounds))
		} else {
			counts.phases = append(counts.phases, float64(obs.phases))
			counts.rounds = append(counts.rounds, float64(obs.rounds))
			counts.finalIters = append(counts.finalIters, float64(obs.finalIters))
			if algo == "mpc-compress" {
				counts.compressSolves++
				if obs.phases > 0 && obs.compRds == 0 {
					counts.fallback++
				}
			}
		}
	}
	if budget > 0 && !out.Exact {
		sp = rec.begin(op, "improve", parent)
		cover, _, err := improve.Run(ctx, work, out.Cover, improve.Options{Budget: budget, Seed: cfg.Seed})
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("improve: %w", err)
		}
		out.Cover = cover
	}

	sp = rec.begin(op, "lift", parent)
	cover, duals, forced := out.Cover, out.Duals, 0.0
	if tr != nil {
		cover, forced = tr.Lift(out.Cover)
		if out.Duals != nil {
			duals = tr.LiftDuals(out.Duals)
		}
	}
	rec.end(sp)

	sp = rec.begin(op, "verify", parent)
	covers, _ := verify.IsCover(g, cover)
	res.weight = verify.CoverWeight(g, cover)
	var cert *verify.Certificate
	if covers && duals != nil {
		cert, err = verify.NewLiftedCertificate(g, cover, duals, forced)
	}
	rec.end(sp)
	switch {
	case !covers:
		return nil, fmt.Errorf("staged %s cover misses an edge", algo)
	case err != nil:
		return nil, fmt.Errorf("staged %s certificate: %w", algo, err)
	case cert != nil:
		res.bound = cert.Bound
	case out.Exact:
		res.bound = res.weight
	default:
		return nil, fmt.Errorf("staged %s returned no certificate", algo)
	}
	return res, nil
}

// sameBits reports whether two floats are bitwise identical.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// clusterStats is what one untimed core.Run or compress.Run reports about
// the simulated cluster: the quantities the paper bounds.
type clusterStats struct {
	alpha         float64 // dual violation factor before rescaling (Theorem 4.7: ≤ 1+6ε)
	wordsPerRound float64
	messages      float64
	maxLoadFrac   float64 // max resident words over the per-machine budget S
	splits        float64 // compress only
}

// runCluster solves the kernel of g once more, untimed, with the solver
// package itself so the cluster accounting is visible.
func runCluster(ctx context.Context, g *graph.Graph, algo string, eps float64, seed uint64) (*clusterStats, error) {
	red, err := reduce.Run(ctx, g)
	if err != nil {
		return nil, err
	}
	work := red.Kernel
	var res *core.Result
	budget := core.ParamsPractical(eps, seed).MemoryWords(work.NumVertices())
	st := &clusterStats{}
	switch algo {
	case "mpc":
		res, err = core.Run(ctx, work, core.ParamsPractical(eps, seed))
	case "mpc-compress":
		var cres *compress.Result
		cres, err = compress.Run(ctx, work, compress.DefaultParams(eps, seed))
		if err == nil {
			res = &cres.Result
			st.splits = float64(cres.Splits)
		}
	default:
		return nil, fmt.Errorf("no cluster run for %q", algo)
	}
	if err != nil {
		return nil, err
	}
	_, st.alpha = res.FeasibleDual(work)
	m := res.ClusterMetrics
	st.wordsPerRound = frac(float64(m.TotalWords), float64(m.Rounds))
	st.messages = float64(m.TotalMessages)
	st.maxLoadFrac = frac(float64(m.MaxResidentWords), float64(budget))
	return st, nil
}

// ingest collects the rate and allocation of traced graph reads.
type ingest struct{ rate, alloc []float64 }

// read runs one graph read of size bytes as a graph.read span under parent.
func (in *ingest) read(rec *recorder, op, parent int, size int64, read func() (*graph.Graph, error)) (*graph.Graph, error) {
	sp := rec.begin(op, "graph.read", parent)
	before, start := readRuntime(), time.Now()
	g, err := read()
	d, after := time.Since(start), readRuntime()
	rec.end(sp)
	if err == nil {
		in.rate = append(in.rate, float64(size)/(1<<20)/d.Seconds())
		in.alloc = append(in.alloc, float64(after.allocBytes-before.allocBytes)/(1<<20))
	}
	return g, err
}

// layerMetrics fills the per-layer metrics that the traced run measures the
// same way on every workload: stage times from the spans, the kernel
// fraction, graph reads, the observer counts and, when a cluster run
// happened, its accounting. Metrics of layers that did not run read 0.
func layerMetrics(m metricSet, rec *recorder, counts *solveCounts, kernelFrac []float64, reads *ingest, cl, compCl *clusterStats) {
	for _, stage := range []string{"reduce", "solve", "lift", "verify"} {
		m.setDist(stage+".ms", "ms", rec.durations(stage), 0.5)
	}
	m.setDist("reduce.kernel_edge_frac", "frac", kernelFrac, 0.5)
	all := append(slices.Clone(counts.rounds), counts.pdfastRounds...)
	m.setDist("solver.rounds", "count", all, 0.5)
	m.setDist("core.phases", "count", counts.phases, 0.5)
	m.setDist("centralized.final_iterations", "count", counts.finalIters, 0.5)
	m.setDist("pdfast.rounds", "count", counts.pdfastRounds, 0.5)
	m.set("compress.fallback_frac", "frac", frac(float64(counts.fallback), float64(counts.compressSolves)), counts.compressSolves)
	m.set("compress.local_rounds_per_mpc_round", "count", frac(float64(counts.localRounds), float64(counts.compressRounds)), counts.compressRounds)
	m.setDist("graph.read_mb_per_s", "MB/s", reads.rate, 0.5)
	m.setDist("graph.read_alloc_mb", "MB", reads.alloc, 0.5)

	if cl == nil {
		cl = compCl
	}
	if cl == nil {
		cl = &clusterStats{}
	}
	m.set("core.alpha", "ratio", cl.alpha, 1)
	m.set("mpc.words_per_round", "words", cl.wordsPerRound, 1)
	m.set("mpc.messages_per_solve", "count", cl.messages, 1)
	m.set("mpc.max_load_frac", "frac", cl.maxLoadFrac, 1)
	if compCl == nil {
		compCl = &clusterStats{}
	}
	m.set("compress.splits_per_solve", "count", compCl.splits, 1)

	// Report-only timings of layers that run on some workloads only.
	extra := func(name string, xs []float64) {
		if len(xs) > 0 {
			m.setDist(name, "ms", xs, 0.5)
		}
	}
	extra("graph.read_ms", rec.durations("graph.read"))
	extra("core.phase_ms", rec.durations("core.phase"))
	extra("compress.phase_ms", rec.durations("compress.phase"))
	extra("mpc.round_ms_p50", rec.durations("mpc.round"))
	extra("compress.round_ms_p50", counts.compressMS)
	extra("centralized.final_phase_ms", rec.durations("centralized.final_phase"))
	extra("pdfast.round_ms_p50", rec.durations("pdfast.round"))
	extra("pdfast.tail_ms", rec.durations("pdfast.tail"))
}
