// Package experiments contains the evaluation harness. The paper is a
// theory paper — it proves claims instead of tabulating measurements — so
// every theorem and lemma of its analysis becomes a registered experiment
// that regenerates a table. DESIGN.md's "Experiment index" maps each to the
// claim it checks; `cmd/mwvc-bench` reruns any or all of them, and the root
// bench_test.go exposes each as a testing.B benchmark.
package experiments

import (
	"io"
	"sort"
)

// Config controls an experiment run.
type Config struct {
	// Quick shrinks instance sizes so the whole suite finishes in seconds —
	// used by unit tests and the root bench_test.go. Full-size runs are what
	// `mwvc-bench` renders by default.
	Quick bool
	// Seed makes the whole suite reproducible.
	Seed uint64
}

// Experiment is one registered reproduction target.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E1").
	ID string
	// Title is a one-line description.
	Title string
	// Claim cites the paper statement being reproduced.
	Claim string
	// Run executes the experiment and returns the result artifacts: tables
	// and, for the claims a paper would plot, ASCII charts.
	Run func(cfg Config) ([]Renderable, error)
}

// Renderable is anything an experiment can emit — *stats.Table and
// *stats.Chart both satisfy it.
type Renderable interface {
	Render(w io.Writer) error
}

// renderables packs artifacts for an experiment's return.
func renderables(items ...Renderable) []Renderable { return items }

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		// E1 < E2 < ... < E10 < E11: compare by numeric suffix.
		return idNum(out[i].ID) < idNum(out[j].ID)
	})
	return out
}

func idNum(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
