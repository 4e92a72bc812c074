package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E10",
		Title: "ablations of the paper's weighted-case design choices",
		Claim: "Section 3.2: each of (a) degree-aware init, (b) estimator bias, (c) V^inactive split, (d) random thresholds plays a role in the weighted case",
		Run:   runE10,
	})
}

func runE10(cfg Config) ([]Renderable, error) {
	n, d := 6000, 128.0
	if cfg.Quick {
		n, d = 1500, 48.0
	}
	eps := 0.1
	g := gen.ApplyWeights(gen.GnpAvgDegree(cfg.Seed+33, n, d), cfg.Seed+34, gen.UniformRange{Lo: 1, Hi: 100})

	variants := []struct {
		name   string
		mutate func(*core.Params)
	}{
		{"paper-design", func(*core.Params) {}},
		{"uniform-init", func(p *core.Params) { p.UniformInit = true }},
		{"no-bias", func(p *core.Params) { p.BiasCoefficient = 0 }},
		{"no-inactive-split", func(p *core.Params) { p.DisableInactiveSplit = true }},
		{"fixed-thresholds", func(p *core.Params) { p.FixedThresholds = true }},
	}
	tb := stats.NewTable("E10: design ablations (G(n,p), n="+itoa(n)+", d="+itoa(int(d))+", ε=0.1)",
		"variant", "phases", "rounds", "cert_ratio", "alpha", "tightness", "stalled")
	for _, v := range variants {
		params := core.ParamsPractical(eps, cfg.Seed+35)
		v.mutate(&params)
		res, err := core.Run(context.Background(), g, params)
		if err != nil {
			// An ablation failing *is* a result: the uniform-init variant
			// stalls (duals reset every phase, so no vertex ever reaches a
			// threshold) and the residual instance then exceeds the Õ(n)
			// final-machine budget — which is precisely why the paper's
			// degree-aware initialization is load-bearing.
			tb.AddRow(v.name, "-", "-", "-", "-", "-", "FAILED: "+shortErr(err))
			continue
		}
		ratio, err := certifiedRatio(g, res)
		if err != nil {
			return nil, err
		}
		tb.AddRow(v.name, res.Phases, res.Rounds, ratio, alphaOf(g, res),
			res.CoverTightness(g), stalled(res))
	}
	return renderables(tb), nil
}

// shortErr trims an error chain to its last segment for table cells.
func shortErr(err error) string {
	s := err.Error()
	if i := lastIndex(s, ": "); i >= 0 {
		return s[i+2:]
	}
	return s
}

func lastIndex(s, sub string) int {
	for i := len(s) - len(sub); i >= 0; i-- {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// stalled reports whether the run hit the stall fallback: a sampled phase
// made (almost) no progress, so the residual instance was handed to the
// final centralized phase early. The uniform-init ablation does this by
// construction — re-initializing the duals every phase discards all growth,
// which is exactly why the paper's degree-aware initialization is needed
// for round compression.
func stalled(res *core.Result) string {
	count := 0
	for _, st := range res.PhaseStats {
		if float64(st.EdgesAfter) > 0.99*float64(st.EdgesBefore) {
			count++
		} else {
			count = 0
		}
	}
	if count >= 3 {
		return "yes"
	}
	return "no"
}
