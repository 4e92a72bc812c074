package solver

// EventKind tags a solve-progress event.
type EventKind int

const (
	// KindPhaseStart fires when a sampled phase of a round-compression
	// algorithm begins (AlgoMPC, AlgoMPCCompress, and ggk.Run in E13).
	KindPhaseStart EventKind = iota
	// KindRound fires after each accounted communication round (MPC cluster
	// round, congested-clique round) or, for the LOCAL baselines, after each
	// iteration — the two coincide there by definition. For solvers that
	// account rounds per communication step (mpc, centralized, local-uniform,
	// congested-clique) the number of KindRound events equals the final
	// Outcome.Rounds.
	KindRound
	// KindPhaseEnd fires when a sampled phase completes, carrying the
	// post-phase active-edge count and the running dual total.
	KindPhaseEnd
	// KindFinalPhase fires once, after the final (single-machine) phase of a
	// round-compression algorithm finishes.
	KindFinalPhase
	// KindReduceStart fires when the pipeline's kernelization stage begins,
	// carrying the original edge count in ActiveEdges.
	KindReduceStart
	// KindReduceEnd fires when the kernelization stage completes, carrying
	// the kernel edge count in ActiveEdges. Subsequent solve events refer to
	// the kernel instance.
	KindReduceEnd
	// KindImproveStart fires when the pipeline's anytime improvement stage
	// begins, carrying the cover weight entering the stage in Weight (on the
	// solved instance — the kernel when reduction ran).
	KindImproveStart
	// KindImproveStep fires after every accepted improvement move, carrying
	// the 1-based accepted-move count in Round and the cover weight after
	// the move in Weight. The stream is strictly decreasing in Weight.
	KindImproveStep
	// KindImproveEnd fires when the improvement stage completes (converged,
	// budget expired, or cancelled), carrying the final cover weight in
	// Weight and the total accepted-move count in Round.
	KindImproveEnd
	// KindCompress fires once per compressed MPC round of the
	// round-compressed solver (AlgoMPCCompress), after the round's sampled
	// LOCAL simulation has been reconciled: Iterations carries the number of
	// simulated LOCAL rounds executed inside the gathered groups, Machines
	// the group count, Phase the compressed-round index, Round the
	// cumulative cluster rounds, and ActiveEdges/DualBound the post-round
	// state.
	KindCompress
)

// String returns the kind's wire name (used by CLI traces and the solve
// service's SSE event names).
func (k EventKind) String() string {
	switch k {
	case KindPhaseStart:
		return "phase-start"
	case KindRound:
		return "round"
	case KindPhaseEnd:
		return "phase-end"
	case KindFinalPhase:
		return "final-phase"
	case KindReduceStart:
		return "reduce-start"
	case KindReduceEnd:
		return "reduce-end"
	case KindImproveStart:
		return "improve-start"
	case KindImproveStep:
		return "improve-step"
	case KindImproveEnd:
		return "improve-end"
	case KindCompress:
		return "compress"
	default:
		return "unknown"
	}
}

// MarshalText returns the kind's wire name, so that an Event's JSON names
// its kind as String does.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one solve-progress observation. Fields that do not apply to the
// emitting solver or kind are zero; ActiveEdges uses -1 for "not measured".
// Its JSON is the data payload of the solve service's SSE trace events: the
// kind's wire name, then the fields below, with a zero Degree, Machines,
// Iterations or Weight left out.
type Event struct {
	Kind EventKind `json:"kind"`
	// Phase is the phase index for phase-scoped events; -1 when the event is
	// not tied to a phase.
	Phase int `json:"phase"`
	// Round is the cumulative accounted round/iteration count at the time of
	// the event.
	Round int `json:"round"`
	// ActiveEdges is the number of edges still active (nonfrozen) after the
	// event, or -1 when the emitting round does not measure it.
	ActiveEdges int64 `json:"active_edges"`
	// DualBound is the running total Σ_e x_e over finalized dual variables.
	// It becomes the weak-duality lower bound after feasibility rescaling;
	// mid-solve it is a raw progress indicator, not a certified bound.
	DualBound float64 `json:"dual_bound"`
	// Degree is the degree scale driving a phase: average residual degree
	// for the MPC algorithm, maximum active degree for GGK.
	Degree float64 `json:"degree,omitempty"`
	// Machines and Iterations echo the phase parameters (m and I) for
	// phase-start events, and the final-phase iteration count for
	// KindFinalPhase.
	Machines   int `json:"machines,omitempty"`
	Iterations int `json:"iterations,omitempty"`
	// Weight is the current cover weight for the improvement-stage events
	// (KindImproveStart/Step/End); 0 elsewhere.
	Weight float64 `json:"weight,omitempty"`
}

// Observer receives solve-progress events. Implementations must be fast and
// must not retain the Event past the call; solvers invoke them synchronously
// from the solve loop.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts an ordinary function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// MultiObserver fans events out to several observers in order, skipping nils.
func MultiObserver(obs ...Observer) Observer {
	return ObserverFunc(func(e Event) {
		for _, o := range obs {
			if o != nil {
				o.OnEvent(e)
			}
		}
	})
}

// Emit sends e to o when o is non-nil; the nil check keeps call sites in the
// solver hot loops branch-cheap and uncluttered.
func Emit(o Observer, e Event) {
	if o != nil {
		o.OnEvent(e)
	}
}
