package compress

import "repro/internal/core"

// Params configures the round-compressed solver: every core.Params field
// keeps its meaning (PhaseIterations gives k, the simulated LOCAL rounds per
// gathered group, and NumMachines the group count), plus the gather budget.
// Use DefaultParams or PaperParams and adjust fields.
type Params struct {
	core.Params
	// GatherWords returns the share of a machine's budget that one gathered
	// group may occupy (vertex plus co-located edge records); the remainder
	// is headroom for message framing, the scalar fan-in, and result
	// staging. Nil means MemoryWords(n)/2. The memory precheck splits any
	// partition whose largest group exceeds this.
	GatherWords func(n int) int64
}

// DefaultParams returns core.ParamsPractical. Its iteration formula,
// k = max(2, ⌊0.5·ln(groups)/ln(1/(1−ε))⌋), is the native one on purpose:
// k is bounded by the estimator's deviation budget, not by communication.
// Raising it makes estimator-starved vertices (few co-located edges) freeze
// late at x·(1/(1−ε))^t values the one-sided bias no longer covers, and the
// measured feasibility-violation factor α — hence the certified ratio —
// grows roughly as the extra growth factor (measured: coefficient 0.65
// already costs ≈20% of the certified ratio; 2.0 costs a factor of 13). The
// compression win is therefore taken entirely on the round bill: the same k
// simulated LOCAL rounds ride on 3 accounted cluster rounds instead of the
// native 5.
func DefaultParams(epsilon float64, seed uint64) Params {
	return Params{Params: core.ParamsPractical(epsilon, seed)}
}

// PaperParams returns core.ParamsPaper. As with the native solver, the
// log³⁰n switch-over makes every practically sized instance skip straight
// to the final centralized phase.
func PaperParams(epsilon float64, seed uint64) Params {
	return Params{Params: core.ParamsPaper(epsilon, seed)}
}
