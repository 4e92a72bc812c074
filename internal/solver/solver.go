package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
)

// ErrUnsupported marks a solve error caused by the request itself — an
// instance or parameter outside the algorithm's domain (exact beyond its
// vertex limit, ε out of range) rather than an internal failure. Solvers
// wrap it with %w at their input-validation sites; servers classify such
// failures as client errors via errors.Is.
var ErrUnsupported = errors.New("unsupported instance or parameters")

// Config carries the cross-algorithm solve parameters. Solvers ignore fields
// that do not apply to them (e.g. Parallelism outside the MPC simulation and
// pdfast).
type Config struct {
	// Epsilon is the accuracy parameter for the primal–dual algorithms; the
	// facade defaults it to 0.1.
	Epsilon float64
	// Seed drives all randomness; same seed ⇒ same output.
	Seed uint64
	// Parallelism bounds the worker goroutines a solve runs at once
	// (0 = GOMAXPROCS): the simulated machines of mpc and mpc-compress and
	// the sweep workers of pdfast. The sequential solvers ignore it. At
	// 2 or more, Pipeline may start an observer-free solve beside the
	// reduce stage, which then uses one goroutine beyond it until reduce
	// returns (see Pipeline.Run).
	Parallelism int
	// PaperConstants selects the literal asymptotic constants of the paper
	// for the MPC algorithm (core.ParamsPaper); default is the practical
	// scaling.
	PaperConstants bool
	// Observer, when non-nil, receives solve-progress events (see Event).
	Observer Observer
	// ImproveBudget, when positive, enables the pipeline's anytime
	// local-search improvement stage (internal/improve) with that wall-clock
	// budget. Zero (the default) skips the stage entirely, keeping results
	// bit-for-bit identical to the pre-improvement pipeline. Solvers ignore
	// this field; only the Pipeline reads it.
	ImproveBudget time.Duration
}

// Outcome is what a Solver returns: the raw cover plus whatever certificate
// and round accounting the algorithm produces. The facade verifies the cover
// and turns the duals into a checked certificate.
type Outcome struct {
	// Cover marks the chosen vertices.
	Cover []bool
	// Duals is a feasible fractional matching certifying the cover weight
	// against OPT by weak LP duality, or nil when the algorithm raises none
	// (greedy). Pipeline certifies a dual-free cover that is not Exact
	// with verify.BarYehudaEven's duals on the instance it solved.
	Duals []float64
	// Rounds counts communication rounds for the distributed algorithms;
	// 0 for sequential ones.
	Rounds int
	// Phases counts sampled MPC phases (round-compression algorithms only).
	Phases int
	// Exact reports that the cover weight is the true optimum.
	Exact bool
}

// Solver is one registered algorithm.
type Solver interface {
	Solve(ctx context.Context, g *graph.Graph, cfg Config) (*Outcome, error)
}

// Func adapts an ordinary function to the Solver interface.
type Func func(ctx context.Context, g *graph.Graph, cfg Config) (*Outcome, error)

// Solve implements Solver.
func (f Func) Solve(ctx context.Context, g *graph.Graph, cfg Config) (*Outcome, error) {
	return f(ctx, g, cfg)
}

// Solver tiers: every registered algorithm belongs to exactly one quality/
// latency bucket. The serve layer resolves a request's `tier` hint to the
// lowest-ranked algorithm of that tier, and the CLI help table prints the
// tier column so the buckets stay visible in one place.
const (
	// TierFast marks near-zero-overhead solvers for latency-sensitive
	// requests (one or few linear passes, certified 2-approximation or
	// cheaper).
	TierFast = "fast"
	// TierAccurate marks the paper-faithful (2+ε)-approximation algorithms
	// and their distributed-model variants.
	TierAccurate = "accurate"
	// TierExact marks provably optimal solvers.
	TierExact = "exact"
)

// Meta describes a registered solver for listings and CLI help text.
type Meta struct {
	// Name is the registry key and the -algo flag value (e.g. "mpc").
	Name string
	// Rank orders listings; ties break by name.
	Rank int
	// Summary is a one-line description for help text.
	Summary string
	// Tier buckets the solver by quality/latency trade-off: TierFast,
	// TierAccurate or TierExact.
	Tier string
}

// Registration pairs a solver with its metadata.
type Registration struct {
	Meta
	Solver Solver
}

var (
	mu       sync.RWMutex
	registry = map[string]Registration{}
)

// Register adds a solver under meta.Name. It panics on an empty name, a nil
// solver, or a duplicate registration — all programmer errors in an init
// function, never runtime conditions.
func Register(meta Meta, s Solver) {
	if meta.Name == "" {
		panic("solver: Register with empty name")
	}
	if s == nil {
		panic(fmt.Sprintf("solver: Register(%q) with nil solver", meta.Name))
	}
	switch meta.Tier {
	case TierFast, TierAccurate, TierExact:
	default:
		panic(fmt.Sprintf("solver: Register(%q) with unknown tier %q", meta.Name, meta.Tier))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[meta.Name]; dup {
		panic(fmt.Sprintf("solver: duplicate registration of %q", meta.Name))
	}
	registry[meta.Name] = Registration{Meta: meta, Solver: s}
}

// Lookup returns the registration for name.
func Lookup(name string) (Registration, bool) {
	mu.RLock()
	defer mu.RUnlock()
	r, ok := registry[name]
	return r, ok
}

// Registrations returns every registration ordered by (Rank, Name).
func Registrations() []Registration {
	mu.RLock()
	out := make([]Registration, 0, len(registry))
	for _, r := range registry {
		out = append(out, r)
	}
	mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ByTier returns the registrations whose Meta.Tier equals tier, ordered by
// (Rank, Name). The first entry is the tier's preferred algorithm — the one
// a serve-layer `tier` hint resolves to.
func ByTier(tier string) []Registration {
	regs := Registrations()
	out := regs[:0:0]
	for _, r := range regs {
		if r.Tier == tier {
			out = append(out, r)
		}
	}
	return out
}

// Names returns the registered solver names ordered by (Rank, Name).
func Names() []string {
	regs := Registrations()
	names := make([]string, len(regs))
	for i, r := range regs {
		names[i] = r.Name
	}
	return names
}
