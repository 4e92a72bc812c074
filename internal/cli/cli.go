// Package cli holds the instance-construction helpers shared by the
// command-line tools (cmd/mwvc, cmd/mwvc-gen) and the solve service.
package cli

import (
	"fmt"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Generators lists the accepted -gen values.
func Generators() []string {
	return []string{"gnp", "powerlaw", "bipartite", "regular", "grid", "star", "clique", "planted", "rmat", "smallworld"}
}

// WeightModels lists the accepted -weights values.
func WeightModels() []string {
	return []string{"unit", "uniform", "exp", "loguniform", "degree", "inverse-degree"}
}

// BuildGraph constructs the requested instance. n is the vertex count and d
// the target average degree (interpreted sensibly per generator).
func BuildGraph(generator string, n int, d float64, weights string, seed uint64) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("cli: negative vertex count %d", n)
	}
	var g *graph.Graph
	switch strings.ToLower(generator) {
	case "powerlaw":
		k := int(d / 2)
		if k < 1 {
			k = 1
		}
		g = gen.PreferentialAttachment(seed, n, k)
	case "regular":
		k := int(d)
		if k >= n {
			k = n - 1
		}
		if k < 0 {
			k = 0
		}
		g = gen.RandomRegular(seed, n, k)
	case "clique":
		g = gen.Clique(n)
	case "planted":
		cover := n / 10
		if cover < 1 {
			cover = 1
		}
		g, _ = gen.PlantedCover(seed, n, cover, int(d*float64(n)/2), 1, 100)
	case "rmat":
		scale := 1
		for 1<<uint(scale) < n && scale < 30 {
			scale++
		}
		ef := int(d / 2)
		if ef < 1 {
			ef = 1
		}
		g = gen.RMAT(seed, scale, ef, 0.57, 0.19, 0.19)
	case "smallworld":
		k := int(d / 2)
		if k < 1 {
			k = 1
		}
		for 2*k >= n && k > 1 {
			k--
		}
		if n < 3 {
			return nil, fmt.Errorf("cli: smallworld needs n >= 3")
		}
		g = gen.WattsStrogatz(seed, n, k, 0.2)
	default:
		// gnp, bipartite, grid and star: the stream `-stream` writes.
		nv, stream, ok := streamSpec(generator, n, d, seed)
		if !ok {
			return nil, fmt.Errorf("cli: unknown generator %q (options: %s)", generator, strings.Join(Generators(), ", "))
		}
		g = gen.FromStream(nv, stream)
	}
	model, err := WeightModel(weights)
	if err != nil {
		return nil, err
	}
	return gen.ApplyWeights(g, seed+1, model), nil
}

// WeightModel resolves a -weights flag value.
func WeightModel(name string) (gen.WeightModel, error) {
	switch strings.ToLower(name) {
	case "", "unit":
		return gen.Unit{}, nil
	case "uniform":
		return gen.UniformRange{Lo: 1, Hi: 100}, nil
	case "exp":
		return gen.Exponential{Mean: 10}, nil
	case "loguniform":
		return gen.PowerLaw{MaxWeight: 1e9}, nil
	case "degree":
		return gen.DegreeCorrelated{Alpha: 1}, nil
	case "inverse-degree":
		return gen.DegreeCorrelated{Alpha: -1}, nil
	default:
		return nil, fmt.Errorf("cli: unknown weight model %q (options: %s)", name, strings.Join(WeightModels(), ", "))
	}
}
