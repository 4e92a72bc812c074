package solver

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/improve"
	"repro/internal/reduce"
	"repro/internal/verify"
)

// Result is the verified outcome of a Pipeline run, which the facade
// returns as mwvc.Solution: the cover and certificate always refer to the
// original graph the pipeline was given, never to an internal kernel. Its
// JSON form is the solve service's wire format.
type Result struct {
	// Cover marks the chosen vertices of the original graph.
	Cover []bool `json:"cover,omitempty"`
	// Weight is the total weight of the cover.
	Weight float64 `json:"weight"`
	// Bound is a certified lower bound on OPT: the value of a feasible
	// fractional matching on the solved instance (weak LP duality,
	// Lemma 3.2) plus the reduction's forced weight, or Weight itself for
	// an exact solve without duals. A solver that raises no duals (greedy)
	// is certified by verify.BarYehudaEven's duals on the same instance.
	Bound float64 `json:"bound"`
	// CertifiedRatio is Weight/Bound, so OPT ≥ Weight/CertifiedRatio. A
	// zero-weight cover has Bound 0 and ratio 1.
	CertifiedRatio float64 `json:"certified_ratio"`
	// Rounds counts communication rounds for the distributed algorithms
	// (MPC rounds for mpc, iterations for the LOCAL baselines,
	// congested-clique rounds for congested-clique); 0 for sequential
	// algorithms. Measured on the kernel when reduction ran: the honest
	// cost of the solve that actually executed.
	Rounds int `json:"rounds,omitempty"`
	// Phases counts the sampled MPC phases (mpc and mpc-compress only).
	Phases int `json:"phases,omitempty"`
	// Exact reports that Weight is the true optimum: the exact solver, or
	// any algorithm on an instance the reduction rules solved outright
	// (empty kernel).
	Exact bool `json:"exact,omitempty"`
	// Reduction reports what the kernelization stage did — instance size
	// before and after, per-rule counts, forced weight, reduce time. It is
	// nil when the pipeline ran without reduction.
	Reduction *reduce.Stats `json:"reduction,omitempty"`
	// Improvement reports what the anytime improvement stage did — weights
	// before/after on the solved instance, move counts, time to first
	// improvement. It is nil unless the pipeline ran with an improvement
	// budget (and the result was not already exact).
	Improvement *improve.Stats `json:"improvement,omitempty"`
}

// Pipeline stages one solve: Reduce (optional kernelization) → Solve on the
// kernel through a registered solver → Improve (optional anytime local
// search on the kernel cover, under Config.ImproveBudget) → Lift the kernel
// cover and duals back to the original graph → Verify cover and certificate
// on the original. With Reduce false and ImproveBudget zero the pipeline is
// exactly the pre-kernelization solve path, bit for bit.
type Pipeline struct {
	// Solver executes the (possibly kernelized) instance.
	Solver Solver
	// Reduce enables the kernelization stage.
	Reduce bool
	// Config is passed through to the solver. Its Observer additionally
	// receives KindReduceStart/KindReduceEnd events around the
	// kernelization stage and KindImproveStart/Step/End events from the
	// improvement stage; its ImproveBudget enables that stage.
	Config Config
	// Kernel, when non-nil and Reduce is set, remembers the input's
	// reduction across runs: an empty slot is filled by the first
	// successful reduction, and a filled one replaces the reduce stage.
	// It must only ever be used with one graph.
	Kernel *Kernel
}

// Run executes the pipeline on g. The returned Result is fully verified
// against g: an invalid cover or infeasible certificate — from any solver,
// on any kernel — is an error, never a silently wrong answer.
//
// With reduction on, Run may start Solver.Solve(ctx, g, Config) on its own
// goroutine just before reduce.Run (the overlap). It does so when only the
// domination rule could shrink g (reduce.OnlyDomination), no observer is
// attached, and Config.Parallelism (GOMAXPROCS when 0) is at least 2. If
// nothing reduces, that is the very call the solve stage would make next,
// so Run uses its outcome, error or panic as if it had made the call
// itself: every output bit is the same. If a rule fires, reduce reports it
// at once; Run cancels the overlap and solves the kernel as without it. On
// every path Run waits for the overlap's goroutine before the kernel solve
// starts or Run returns, and a discarded overlap's error or panic is
// dropped, as the solve it stands for never runs.
//
// With a filled Kernel, Run skips reduce.Run and the overlap: it emits the
// same reduce events and solves, lifts and verifies from the stored kernel
// and trace, with ReduceNS 0. A Kernel filled from another graph is an
// error.
func (p Pipeline) Run(ctx context.Context, g *graph.Graph) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	work := g
	var tr *reduce.Trace
	var stats *reduce.Stats
	var spec *overlap // the solve of g beside reduce.Run, while it may be used
	if p.Reduce {
		red, err := p.Kernel.load(g)
		if err != nil {
			return nil, err
		}
		Emit(p.Config.Observer, Event{Kind: KindReduceStart, Phase: -1, ActiveEdges: int64(g.NumEdges())})
		var ns int64 // 0 when the stored kernel stands in for reduce.Run
		if red == nil {
			var changed func()
			if p.overlaps(g) {
				spec = startOverlap(ctx, p.Solver, g, p.Config)
				changed = spec.cancel // a rule fired: the kernel is not g
			}
			start := time.Now()
			if red, err = runReduce(ctx, g, changed); err != nil {
				spec.discard()
				return nil, err
			}
			// At least 1, so that 0 tells a taken kernel from a fast run.
			ns = max(time.Since(start).Nanoseconds(), 1)
			p.Kernel.store(g, red)
		}
		// Point at a copy: &red.Stats would keep the whole reduce.Result,
		// kernel and trace included, alive in every returned Result.
		st := red.Stats
		st.ReduceNS = ns
		stats = &st
		Emit(p.Config.Observer, Event{Kind: KindReduceEnd, Phase: -1, ActiveEdges: int64(red.Kernel.NumEdges())})
		if red.Trace != nil {
			work, tr = red.Kernel, red.Trace
			spec.discard()
			spec = nil
		}
		// A nil trace means nothing reduced; solve the original directly.
	}

	var out *Outcome
	var err error
	switch {
	case spec != nil:
		out, err = spec.result()
	case tr != nil && work.NumVertices() == 0:
		// Fully reduced: the rules alone determined an optimal cover
		// (OPT(g) = forced weight + OPT(∅) = forced weight), so the solver
		// is skipped and the lifted cover is exact regardless of algorithm.
		out = &Outcome{Cover: []bool{}, Exact: true}
	default:
		out, err = p.Solver.Solve(ctx, work, p.Config)
	}
	if err != nil {
		return nil, err
	}

	var imp *improve.Stats
	if p.Config.ImproveBudget > 0 && !out.Exact {
		// Improve operates on the solved instance (the kernel when reduction
		// ran) so lifting happens exactly once, after the stage. The dual
		// certificate is deliberately untouched: the primal can only
		// decrease against the fixed bound, so CertifiedRatio only tightens.
		obs := p.Config.Observer
		Emit(obs, Event{Kind: KindImproveStart, Phase: -1,
			ActiveEdges: int64(work.NumEdges()), Weight: verify.CoverWeight(work, out.Cover)})
		improved, st, err := improve.Run(ctx, work, out.Cover, improve.Options{
			Budget: p.Config.ImproveBudget,
			Seed:   p.Config.Seed,
			OnStep: func(step int, weight float64) {
				Emit(obs, Event{Kind: KindImproveStep, Phase: -1, Round: step, Weight: weight})
			},
		})
		if err != nil {
			return nil, fmt.Errorf("solver: internal error: improvement rejected solver cover: %w", err)
		}
		Emit(obs, Event{Kind: KindImproveEnd, Phase: -1, Round: st.Steps,
			ActiveEdges: int64(work.NumEdges()), Weight: st.WeightAfter})
		out.Cover, imp = improved, st
	}

	cover, forced := out.Cover, 0.0
	if tr != nil {
		cover, forced = tr.Lift(out.Cover)
	}
	res, err := verifyStage(g, work, cover, forced, out)
	if err != nil {
		return nil, err
	}
	res.Reduction, res.Improvement = stats, imp
	return res, nil
}

// runReduce is the reduce stage; tests replace it to order events around
// reduce.Run.
var runReduce = reduce.RunNotify

// overlaps reports whether Run starts the solver on g beside reduce.Run:
// the gate predicts that the kernel is g itself, no observer needs its
// events in stage order on the caller's goroutine, and the solve may use a
// second goroutine.
func (p Pipeline) overlaps(g *graph.Graph) bool {
	par := p.Config.Parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return p.Config.Observer == nil && par >= 2 && reduce.OnlyDomination(g)
}

// overlap is a solve of the unreduced input running on its own goroutine.
type overlap struct {
	cancel context.CancelFunc
	done   chan overlapResult // buffered for the goroutine's one send
}

// overlapResult is what the overlap's solve returned, or the value it
// panicked with.
type overlapResult struct {
	out      *Outcome
	err      error
	panicked any
}

// startOverlap starts s.Solve(ctx, g, cfg) on its own goroutine, under a
// child of ctx that cancel stops.
func startOverlap(ctx context.Context, s Solver, g *graph.Graph, cfg Config) *overlap {
	sctx, cancel := context.WithCancel(ctx)
	o := &overlap{cancel: cancel, done: make(chan overlapResult, 1)}
	go func() {
		var r overlapResult
		defer func() {
			r.panicked = recover()
			o.done <- r
		}()
		r.out, r.err = s.Solve(sctx, g, cfg)
	}()
	return o
}

// result waits for the solve and returns its outcome and error unchanged,
// re-raising its panic on the caller's goroutine.
func (o *overlap) result() (*Outcome, error) {
	r := <-o.done
	o.cancel()
	if r.panicked != nil {
		panic(r.panicked)
	}
	return r.out, r.err
}

// discard cancels the solve and waits for it, dropping whatever it
// returned. A nil overlap is a no-op.
func (o *overlap) discard() {
	if o != nil {
		o.cancel()
		<-o.done
	}
}

// verifyStage checks the lifted cover against the original graph g, checks
// the dual certificate on the instance the solver solved (work: the kernel,
// or g when nothing reduced), and fills the Result. The certificate is the
// solver's duals, or, when it returns none and is not exact,
// verify.BarYehudaEven's duals on work. Bound is the duals' value plus the
// reduction's forced weight, which is sound because each rule preserves the
// optimum exactly: OPT(g) = forced + OPT(kernel) ≥ forced + Σx. An exact
// outcome is its own bound.
//
// Certifying on the kernel is bit-identical to certifying the lifted duals
// on g (verify.NewLiftedCertificate on reduce.Trace.LiftDuals): kernel edge
// ids follow the original ids' order, kernel weights are the original
// weights, and every edge outside the kernel would carry +0, which changes
// no float sum. It spares the m-sized lifted vector.
//
// A cover of positive weight with Bound 0 certifies nothing, so it is an
// internal error, like an infeasible certificate.
func verifyStage(g, work *graph.Graph, cover []bool, forced float64, out *Outcome) (*Result, error) {
	res := &Result{
		Cover:  cover,
		Rounds: out.Rounds,
		Phases: out.Phases,
		Exact:  out.Exact,
	}
	if len(cover) != g.NumVertices() {
		return nil, fmt.Errorf("solver: internal error: cover length %d, want %d", len(cover), g.NumVertices())
	}
	if ok, e := verify.IsCover(g, cover); !ok {
		u, v := g.Edge(e)
		return nil, fmt.Errorf("solver: internal error: edge (%d,%d) uncovered", u, v)
	}
	res.Weight = verify.CoverWeight(g, cover)
	duals := out.Duals
	if duals == nil && !out.Exact {
		_, duals = verify.BarYehudaEven(work)
	}
	if duals != nil {
		if err := verify.DualFeasible(work, duals); err != nil {
			return nil, fmt.Errorf("solver: internal error: invalid certificate: %w", err)
		}
		res.Bound = verify.DualValue(duals)
		if forced != 0 {
			res.Bound += forced
		}
	} else {
		res.Bound = res.Weight
	}
	switch {
	case res.Bound > 0:
		res.CertifiedRatio = res.Weight / res.Bound
	case res.Weight == 0:
		res.CertifiedRatio = 1
	default:
		return nil, fmt.Errorf("solver: internal error: cover of weight %v certified by bound %v", res.Weight, res.Bound)
	}
	return res, nil
}
