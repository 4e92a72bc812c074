package solver

import (
	"context"
	"testing"

	"repro/internal/graph"
)

func noop(ctx context.Context, g *graph.Graph, cfg Config) (*Outcome, error) {
	return &Outcome{Cover: make([]bool, g.NumVertices())}, nil
}

// registerForTest registers s under meta.Name until t ends, so a test that
// registers fixed names can run again in the same process (-count=N).
func registerForTest(t *testing.T, meta Meta, s Solver) {
	t.Helper()
	Register(meta, s)
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		delete(registry, meta.Name)
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestRegisterRejectsBadRegistrations(t *testing.T) {
	mustPanic(t, "empty name", func() { Register(Meta{}, Func(noop)) })
	mustPanic(t, "nil solver", func() { Register(Meta{Name: "test-nil"}, nil) })

	mustPanic(t, "unknown tier", func() { Register(Meta{Name: "test-tierless"}, Func(noop)) })

	registerForTest(t, Meta{Name: "test-dup", Rank: 1000, Tier: TierFast}, Func(noop))
	mustPanic(t, "duplicate name", func() {
		Register(Meta{Name: "test-dup", Tier: TierFast}, Func(noop))
	})
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("no-such-solver"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
}

func TestRegistrationsOrdered(t *testing.T) {
	registerForTest(t, Meta{Name: "test-z", Rank: 2000, Tier: TierExact}, Func(noop))
	registerForTest(t, Meta{Name: "test-a", Rank: 2001, Tier: TierAccurate}, Func(noop))
	regs := Registrations()
	for i := 1; i < len(regs); i++ {
		a, b := regs[i-1], regs[i]
		if a.Rank > b.Rank || (a.Rank == b.Rank && a.Name > b.Name) {
			t.Fatalf("registrations out of order: %q(rank %d) before %q(rank %d)",
				a.Name, a.Rank, b.Name, b.Rank)
		}
	}
	if got, want := len(Names()), len(regs); got != want {
		t.Fatalf("Names() returned %d entries, Registrations() %d", got, want)
	}
}

func TestByTier(t *testing.T) {
	registerForTest(t, Meta{Name: "test-fast-b", Rank: 3001, Tier: TierFast}, Func(noop))
	registerForTest(t, Meta{Name: "test-fast-a", Rank: 3000, Tier: TierFast}, Func(noop))
	fast := ByTier(TierFast)
	var mine []string
	for _, r := range fast {
		if r.Tier != TierFast {
			t.Fatalf("ByTier(fast) returned %q with tier %q", r.Name, r.Tier)
		}
		if r.Name == "test-fast-a" || r.Name == "test-fast-b" {
			mine = append(mine, r.Name)
		}
	}
	if len(mine) != 2 || mine[0] != "test-fast-a" {
		t.Fatalf("ByTier order wrong: %v", mine)
	}
	if len(ByTier("no-such-tier")) != 0 {
		t.Fatal("ByTier invented registrations for an unknown tier")
	}
}

func TestMultiObserverAndEmit(t *testing.T) {
	var a, b int
	obs := MultiObserver(
		ObserverFunc(func(Event) { a++ }),
		nil,
		ObserverFunc(func(Event) { b++ }),
	)
	Emit(obs, Event{Kind: KindRound})
	Emit(nil, Event{Kind: KindRound}) // must not panic
	if a != 1 || b != 1 {
		t.Fatalf("fan-out counts a=%d b=%d, want 1/1", a, b)
	}
}

func TestEventKindStrings(t *testing.T) {
	for _, k := range []EventKind{KindPhaseStart, KindRound, KindPhaseEnd, KindFinalPhase} {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
	if EventKind(99).String() != "unknown" {
		t.Fatal("out-of-range kind should stringify as unknown")
	}
}
