package mwvc_test

// Determinism and event-stream suite for the Algorithm 2 phase driver on
// both schedules (mpc-compress gathered, mpc native), following the pdfast
// differential pattern: for a fixed seed each solver must return
// bit-identical covers, weights, and dual bounds at GOMAXPROCS 1, 2, and 8,
// emit byte-for-byte identical observer event streams (including the
// compression events), and the gathered schedule must use strictly fewer
// accounted MPC rounds than the native one and abort promptly when
// cancelled mid-compression.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/solver"
	"repro/internal/verify"
)

// compressFamilies keeps the average degree above the switch-over
// threshold (2·log₂ n at these sizes), so every instance actually runs
// compressed MPC rounds rather than skipping straight to the final
// centralized phase.
var compressFamilies = []struct {
	name    string
	gen     string
	n       int
	d       float64
	weights string
}{
	{"gnp-uniform", "gnp", 800, 24, "uniform"},
	{"regular-unit", "regular", 600, 24, "unit"},
	{"smallworld-degree", "smallworld", 700, 24, "degree"},
}

var compressSeeds = []uint64{1, 2}

// eventRecorder captures the full observer stream for comparison.
type eventRecorder struct{ events []solver.Event }

func (r *eventRecorder) OnEvent(e solver.Event) { r.events = append(r.events, e) }

// sameEvents compares two event streams with bitwise float comparisons.
func sameEvents(a, b []solver.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.Phase != y.Phase || x.Round != y.Round ||
			x.ActiveEdges != y.ActiveEdges || x.Machines != y.Machines ||
			x.Iterations != y.Iterations {
			return false
		}
		if math.Float64bits(x.DualBound) != math.Float64bits(y.DualBound) ||
			math.Float64bits(x.Degree) != math.Float64bits(y.Degree) ||
			math.Float64bits(x.Weight) != math.Float64bits(y.Weight) {
			return false
		}
	}
	return true
}

// TestCompressDeterminism solves each family with both schedules of the
// shared phase driver (mpc-compress gathered, mpc native) at GOMAXPROCS 1, 2,
// and 8 and requires bit-identical covers, duals, weights, bounds, and event
// streams, plus strictly fewer rounds for the gathered schedule.
func TestCompressDeterminism(t *testing.T) {
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, fam := range compressFamilies {
		for _, seed := range compressSeeds {
			g, err := cli.BuildGraph(fam.gen, fam.n, fam.d, fam.weights, seed)
			if err != nil {
				t.Fatal(err)
			}
			rounds := map[string]int{}
			for _, algo := range []string{"mpc-compress", "mpc"} {
				reg, ok := solver.Lookup(algo)
				if !ok {
					t.Fatalf("%s not registered", algo)
				}
				var wantEvents []solver.Event
				var want *solver.Outcome
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					rec := &eventRecorder{}
					cfg := solver.Config{Epsilon: 0.1, Seed: seed, Observer: rec}
					got, err := reg.Solver.Solve(ctx, g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if ok, witness := verify.IsCover(g, got.Cover); !ok {
						t.Fatalf("%s %s/%d: edge %d uncovered", algo, fam.name, seed, witness)
					}
					if err := verify.DualFeasible(g, got.Duals); err != nil {
						t.Fatalf("%s %s/%d: %v", algo, fam.name, seed, err)
					}
					compressEvents := 0
					for _, e := range rec.events {
						if e.Kind == solver.KindCompress {
							compressEvents++
							if e.Iterations < 1 || e.Machines < 1 {
								t.Fatalf("%s/%d: compression event without LOCAL-round or group count: %+v", fam.name, seed, e)
							}
						}
					}
					if algo == "mpc" {
						if compressEvents != 0 {
							t.Fatalf("%s/%d: native solve emitted %d compression events", fam.name, seed, compressEvents)
						}
					} else if compressEvents != got.Phases || got.Phases < 1 {
						t.Fatalf("%s/%d: %d compression events for %d compressed rounds", fam.name, seed, compressEvents, got.Phases)
					}
					if want == nil {
						want, wantEvents = got, rec.events
						continue
					}
					where := fmt.Sprintf("%s %s/%d GOMAXPROCS=%d", algo, fam.name, seed, procs)
					if got.Rounds != want.Rounds {
						t.Fatalf("%s: rounds %d != %d", where, got.Rounds, want.Rounds)
					}
					for v := range want.Cover {
						if got.Cover[v] != want.Cover[v] {
							t.Fatalf("%s: cover diverges at vertex %d", where, v)
						}
					}
					for e := range want.Duals {
						if math.Float64bits(got.Duals[e]) != math.Float64bits(want.Duals[e]) {
							t.Fatalf("%s: dual diverges at edge %d", where, e)
						}
					}
					gw, ww := verify.CoverWeight(g, got.Cover), verify.CoverWeight(g, want.Cover)
					gb, wb := verify.DualValue(got.Duals), verify.DualValue(want.Duals)
					if math.Float64bits(gw) != math.Float64bits(ww) || math.Float64bits(gb) != math.Float64bits(wb) {
						t.Fatalf("%s: weight/bound bits diverge", where)
					}
					if !sameEvents(rec.events, wantEvents) {
						t.Fatalf("%s: event streams diverge (%d vs %d events)", where, len(rec.events), len(wantEvents))
					}
				}
				rounds[algo] = want.Rounds
			}
			if rounds["mpc-compress"] >= rounds["mpc"] {
				t.Fatalf("%s/%d: compressed rounds %d not below native %d", fam.name, seed, rounds["mpc-compress"], rounds["mpc"])
			}
		}
	}
}

// TestCompressCancellationMidCompression cancels the solve from the
// observer as soon as the first compressed round starts and requires a
// prompt context.Canceled return — the round loop must poll between
// cluster rounds, not only between phases.
func TestCompressCancellationMidCompression(t *testing.T) {
	reg, ok := solver.Lookup("mpc-compress")
	if !ok {
		t.Fatal("mpc-compress not registered")
	}
	g, err := cli.BuildGraph("gnp", 20000, 48, "uniform", 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelOnce := solver.ObserverFunc(func(e solver.Event) {
		if e.Kind == solver.KindRound {
			cancel()
		}
	})
	start := time.Now()
	_, err = reg.Solver.Solve(ctx, g, solver.Config{Epsilon: 0.1, Seed: 7, Observer: cancelOnce})
	if err == nil || ctx.Err() == nil {
		t.Fatalf("cancelled mid-compression solve returned err=%v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("mid-compression cancellation took %v, want prompt return", elapsed)
	}
}
