package mwvc

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cli"
	"repro/internal/reduce"
)

// TestConcurrentSolvesAreIsolated pins the facade's concurrency contract
// (run it with -race, as CI does): many goroutines solving simultaneously —
// same graphs, different algorithms, observers attached — share nothing
// mutable. Three properties are checked per goroutine:
//
//  1. determinism: a concurrent solve returns bit-for-bit the same solution
//     as the same (graph, algorithm, seed) solved serially beforehand;
//  2. observer isolation: each solve's observer sees only that solve's
//     events (exactly Solution.Rounds round events for the round-accounting
//     algorithms, monotonically increasing);
//  3. lifecycle isolation: per-solve MPC clusters start and stop without
//     interfering (exercised by AlgoMPC and AlgoCongestedClique running in
//     many goroutines at once).
//
// A further set of solves runs without observers on a random 4-regular
// unit-weight graph, which passes the reduce gate and does not reduce: each
// of them starts its solve on a second goroutine beside reduce (the
// pipeline's overlap) and must still return the sequential solution.
func TestConcurrentSolvesAreIsolated(t *testing.T) {
	graphs := []*Graph{
		RandomGraph(1, 90, 5),  // unit weights
		RandomGraph(2, 140, 8), // denser; forces real MPC traffic
	}
	regular, err := cli.BuildGraph("regular", 500, 4, "unit", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reduce.OnlyDomination(regular) {
		t.Fatal("the regular graph fails the reduce gate, so its solves would not overlap")
	}
	overlapAlgos := []Algorithm{AlgoMPC, AlgoMPCCompress, AlgoPDFast}
	algos := []Algorithm{
		AlgoMPC, AlgoCentralized, AlgoLocalUniform, AlgoBYE,
		AlgoGreedy, AlgoCongestedClique,
	}
	// roundAccounting marks the algorithms whose KindRound event count must
	// equal Solution.Rounds exactly (the observer-stream guarantee).
	roundAccounting := map[Algorithm]bool{
		AlgoMPC: true, AlgoCentralized: true, AlgoLocalUniform: true, AlgoCongestedClique: true,
	}

	// Serial reference solutions, one per (graph, algorithm).
	type key struct {
		gi int
		a  Algorithm
	}
	want := map[key]*Solution{}
	for gi, g := range graphs {
		for _, a := range algos {
			sol, err := Solve(context.Background(), g, WithAlgorithm(a), WithSeed(42), WithParallelism(2))
			if err != nil {
				t.Fatalf("serial %s on graph %d: %v", a, gi, err)
			}
			want[key{gi, a}] = sol
		}
	}
	// The overlap's references come from the sequential pipeline.
	wantOverlap := map[Algorithm]*Solution{}
	for _, a := range overlapAlgos {
		sol, err := Solve(context.Background(), regular, WithAlgorithm(a), WithSeed(42), WithParallelism(1))
		if err != nil {
			t.Fatalf("serial %s on the regular graph: %v", a, err)
		}
		wantOverlap[a] = sol
	}

	const perCombo = 3 // goroutines per (graph, algorithm) pair
	var wg sync.WaitGroup
	// A sick run can emit errors per event, not per goroutine (the observer
	// check fires on every backwards round), so reporting must never block —
	// a blocked observer would wedge Solve and turn the failure into a
	// silent test timeout. Overflowing errors are dropped; the first ones
	// carry the diagnosis.
	errs := make(chan error, 4*(len(graphs)*len(algos)+len(overlapAlgos))*perCombo)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	// diverged describes how sol differs from the serial reference ref, or
	// returns nil when they agree.
	diverged := func(sol, ref *Solution) error {
		if sol.Weight != ref.Weight || sol.Bound != ref.Bound || sol.Rounds != ref.Rounds {
			return fmt.Errorf("concurrent solve diverged: weight %v/%v bound %v/%v rounds %d/%d",
				sol.Weight, ref.Weight, sol.Bound, ref.Bound, sol.Rounds, ref.Rounds)
		}
		for v := range sol.Cover {
			if sol.Cover[v] != ref.Cover[v] {
				return fmt.Errorf("cover bit %d diverged under concurrency", v)
			}
		}
		return nil
	}
	for gi, g := range graphs {
		for _, a := range algos {
			for rep := 0; rep < perCombo; rep++ {
				wg.Add(1)
				go func(gi int, g *Graph, a Algorithm) {
					defer wg.Done()
					rounds, lastRound := 0, 0
					obs := ObserverFunc(func(e Event) {
						if e.Kind == KindRound {
							rounds++
							if e.Round < lastRound {
								report(fmt.Errorf("%s/g%d: round counter went backwards (%d after %d) — foreign events in observer", a, gi, e.Round, lastRound))
							}
							lastRound = e.Round
						}
					})
					sol, err := Solve(context.Background(), g,
						WithAlgorithm(a), WithSeed(42), WithParallelism(2), WithObserver(obs))
					if err != nil {
						report(fmt.Errorf("%s/g%d: %v", a, gi, err))
						return
					}
					if err := diverged(sol, want[key{gi, a}]); err != nil {
						report(fmt.Errorf("%s/g%d: %v", a, gi, err))
						return
					}
					if roundAccounting[a] && rounds != sol.Rounds {
						report(fmt.Errorf("%s/g%d: observer saw %d round events, solution has %d rounds — fan-out leaked across solves",
							a, gi, rounds, sol.Rounds))
					}
				}(gi, g, a)
			}
		}
	}
	for _, a := range overlapAlgos {
		for rep := 0; rep < perCombo; rep++ {
			wg.Add(1)
			go func(a Algorithm) {
				defer wg.Done()
				sol, err := Solve(context.Background(), regular, WithAlgorithm(a), WithSeed(42), WithParallelism(2))
				if err == nil {
					err = diverged(sol, wantOverlap[a])
				}
				if err != nil {
					report(fmt.Errorf("%s/regular without observer: %v", a, err))
				}
			}(a)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
