package experiments

import (
	"context"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/verify"
)

func init() {
	register(Experiment{
		ID:    "E14",
		Title: "true ratio at scale: exact bipartite OPT via König's theorem",
		Claim: "Theorem 4.7 (tightness probe): the certified ratio is an upper bound; on unweighted bipartite graphs König's theorem gives exact OPT at any scale, exposing the true ratio",
		Run:   runE14,
	})
}

func runE14(cfg Config) ([]Renderable, error) {
	type pt struct {
		n int
		p float64
	}
	pts := []pt{{4000, 0.002}, {10000, 0.001}, {20000, 0.0008}}
	if cfg.Quick {
		pts = []pt{{2000, 0.003}}
	}
	tb := stats.NewTable("E14: unweighted bipartite — true vs certified ratio (exact OPT by König)",
		"n", "m", "opt", "mpc_cover", "mpc_true_ratio", "mpc_cert_ratio", "bye_cover", "bye_true_ratio")
	for _, s := range pts {
		g := gen.RandomBipartite(cfg.Seed+uint64(s.n)+51, s.n/2, s.n/2, s.p)
		_, opt, err := bipartite.MinimumVertexCover(g)
		if err != nil {
			return nil, err
		}
		res, err := core.Run(context.Background(), g, core.ParamsPractical(0.1, cfg.Seed+52))
		if err != nil {
			return nil, err
		}
		certRatio, err := certifiedRatio(g, res)
		if err != nil {
			return nil, err
		}
		mpcW := verify.CoverWeight(g, res.Cover)
		byeCover, _ := verify.BarYehudaEven(g)
		byeW := verify.CoverWeight(g, byeCover)
		trueMPC, trueBYE := 1.0, 1.0
		if opt > 0 {
			trueMPC = mpcW / float64(opt)
			trueBYE = byeW / float64(opt)
		}
		tb.AddRow(s.n, g.NumEdges(), opt, mpcW, trueMPC, certRatio, byeW, trueBYE)
	}
	return renderables(tb), nil
}
