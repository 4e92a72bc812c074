package experiments

import (
	"context"

	"repro/internal/centralized"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E7",
		Title: "rounds: Algorithm 2 vs LOCAL one-iteration-per-round baselines",
		Claim: "Section 1.2: prior best for weighted vertex cover was O(log n) rounds; Algorithm 2 needs O(log log d)",
		Run:   runE7,
	})
}

func runE7(cfg Config) ([]Renderable, error) {
	n := 8000
	degrees := []float64{16, 64, 256, 1024}
	if cfg.Quick {
		n = 2000
		degrees = []float64{16, 256}
	}
	eps := 0.1
	tb := stats.NewTable("E7: communication rounds by algorithm (weights loguniform[1,1e6))",
		"d", "mpc_rounds", "mpc_phases", "local_degree_aware", "local_uniform")
	var ds, mpcR, awareR, uniformR []float64
	for _, d := range degrees {
		g := gen.ApplyWeights(gen.GnpAvgDegree(cfg.Seed+uint64(d)+18, n, d), cfg.Seed+19, gen.PowerLaw{MaxWeight: 1e6})
		res, err := core.Run(context.Background(), g, core.ParamsPractical(eps, cfg.Seed+20))
		if err != nil {
			return nil, err
		}
		// The LOCAL baselines run Algorithm 1 one iteration per round.
		aware, err := centralized.Run(context.Background(), centralized.Instance{G: g},
			centralized.Options{Epsilon: eps, Seed: cfg.Seed + 21, Init: centralized.InitDegreeAware})
		if err != nil {
			return nil, err
		}
		uniform, err := centralized.Run(context.Background(), centralized.Instance{G: g},
			centralized.Options{Epsilon: eps, Seed: cfg.Seed + 21, Init: centralized.InitUniform})
		if err != nil {
			return nil, err
		}
		tb.AddRow(d, res.Rounds, res.Phases, aware.Iterations, uniform.Iterations)
		ds = append(ds, log2(d))
		mpcR = append(mpcR, float64(res.Rounds))
		awareR = append(awareR, float64(aware.Iterations))
		uniformR = append(uniformR, float64(uniform.Iterations))
	}
	chart := stats.NewChart("E7 figure: rounds vs log2 d", "log2 d", "rounds")
	chart.AddSeries("mpc (this paper)", ds, mpcR)
	chart.AddSeries("LOCAL degree-aware", ds, awareR)
	chart.AddSeries("LOCAL uniform 1/n", ds, uniformR)
	return renderables(tb, chart), nil
}
