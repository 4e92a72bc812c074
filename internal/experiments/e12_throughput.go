package experiments

import (
	"context"

	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/verify"
)

func init() {
	register(Experiment{
		ID:    "E12",
		Title: "wall-clock and quality vs sequential references",
		Claim: "Sanity scope: the simulated-MPC implementation matches sequential 2-approximations on quality while exposing parallel structure",
		Run:   runE12,
	})
}

func runE12(cfg Config) ([]Renderable, error) {
	sizes := []struct {
		n int
		d float64
	}{{4000, 32}, {16000, 64}, {32000, 64}}
	if cfg.Quick {
		sizes = []struct {
			n int
			d float64
		}{{2000, 24}}
	}
	tb := stats.NewTable("E12: wall-clock and certified quality",
		"n", "m", "algo", "millis", "weight", "cert_ratio")
	for _, s := range sizes {
		g := gen.ApplyWeights(gen.GnpAvgDegree(cfg.Seed+uint64(s.n), s.n, s.d), cfg.Seed+36, gen.UniformRange{Lo: 1, Hi: 50})

		start := time.Now()
		res, err := core.Run(context.Background(), g, core.ParamsPractical(0.1, cfg.Seed+37))
		if err != nil {
			return nil, err
		}
		mpcMS := time.Since(start).Milliseconds()
		ratio, err := certifiedRatio(g, res)
		if err != nil {
			return nil, err
		}
		tb.AddRow(s.n, g.NumEdges(), "mpc", mpcMS, verify.CoverWeight(g, res.Cover), ratio)

		start = time.Now()
		byeCover, byeDuals := verify.BarYehudaEven(g)
		byeMS := time.Since(start).Milliseconds()
		byeCert, err := verify.NewCertificate(g, byeCover, byeDuals)
		if err != nil {
			return nil, err
		}
		tb.AddRow(s.n, g.NumEdges(), "bar-yehuda-even", byeMS, byeCert.Weight, byeCert.Ratio())

		// Greedy raises no duals; as in the facade's verify stage, the
		// Bar-Yehuda–Even duals certify its cover.
		start = time.Now()
		greedy := baselines.Greedy(g)
		greedyMS := time.Since(start).Milliseconds()
		greedyCert, err := verify.NewCertificate(g, greedy, byeDuals)
		if err != nil {
			return nil, err
		}
		tb.AddRow(s.n, g.NumEdges(), "greedy", greedyMS, greedyCert.Weight, greedyCert.Ratio())
	}
	return renderables(tb), nil
}
