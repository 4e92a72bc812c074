package core

// Failure-injection tests: the algorithm must fail loudly and cleanly when
// its resources are taken away or its parameter functions misbehave — and
// must clamp, not crash, on degenerate-but-legal configurations.

import (
	"context"

	"strings"
	"testing"

	"repro/internal/gen"
)

func TestFailureTinyMachineMemory(t *testing.T) {
	g := gen.GnpAvgDegree(1, 500, 32)
	p := ParamsPractical(0.1, 1)
	p.MemoryWords = func(int) int64 { return 64 } // can hold ~5 edges
	_, err := Run(context.Background(), g, p)
	if err == nil {
		t.Fatal("ran with 64 words of machine memory")
	}
	if !strings.Contains(err.Error(), "words") && !strings.Contains(err.Error(), "memory") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestFailureMemoryTooSmallForAnyEdge(t *testing.T) {
	g := gen.GnpAvgDegree(1, 100, 16)
	p := ParamsPractical(0.1, 1)
	p.MemoryWords = func(int) int64 { return 4 }
	if _, err := Run(context.Background(), g, p); err == nil {
		t.Fatal("accepted a memory budget below one edge record")
	}
}

func TestClampsPathologicalParameterFunctions(t *testing.T) {
	g := gen.GnpAvgDegree(2, 600, 32)
	p := ParamsPractical(0.1, 2)
	// Machine function returning nonsense values must be clamped, not obeyed.
	p.NumMachines = func(float64) int { return 0 }
	res, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatalf("zero machines not clamped: %v", err)
	}
	for _, st := range res.PhaseStats {
		if st.Machines < 1 {
			t.Fatal("phase ran with zero machines")
		}
	}
	p2 := ParamsPractical(0.1, 2)
	p2.PhaseIterations = func(int, float64) int { return -5 }
	res, err = Run(context.Background(), g, p2)
	if err != nil {
		t.Fatalf("negative iterations not clamped: %v", err)
	}
	for _, st := range res.PhaseStats {
		if st.Iterations < 1 {
			t.Fatal("phase ran with zero iterations")
		}
	}
}

func TestManyMachinesRequested(t *testing.T) {
	// NumMachines larger than the cluster must be clamped to the fleet,
	// which is itself capped at S/8 machines. Every machine keeps O(fleet)
	// routing scratch, so the instance stays small enough that the capped
	// fleet (about 1.7k machines) is cheap under the race detector.
	g := gen.GnpAvgDegree(3, 200, 48)
	p := ParamsPractical(0.1, 3)
	p.NumMachines = func(float64) int { return 1 << 20 }
	res, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases == 0 {
		t.Fatal("no sampled phase ran, so the clamp went unexercised")
	}
	maxFleet := int(p.MemoryWords(g.NumVertices()) / 8)
	for _, st := range res.PhaseStats {
		if st.Machines > maxFleet {
			t.Fatalf("phase %d ran %d machines, fleet cap %d", st.Phase, st.Machines, maxFleet)
		}
	}
}

func TestSwitchThresholdHuge(t *testing.T) {
	// A switch threshold above the initial degree means zero sampled phases:
	// everything goes to the final centralized phase.
	g := gen.GnpAvgDegree(4, 400, 16)
	p := ParamsPractical(0.1, 4)
	p.SwitchThreshold = func(int) float64 { return 1e18 }
	res, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != 0 {
		t.Fatalf("phases %d with an unreachable switch threshold", res.Phases)
	}
	if res.FinalPhaseEdges != int64(g.NumEdges()) {
		t.Fatalf("final phase got %d edges, want all %d", res.FinalPhaseEdges, g.NumEdges())
	}
}

func TestSwitchThresholdZeroStillTerminates(t *testing.T) {
	// A switch threshold of 0 forces sampling phases all the way down;
	// isolated-vertex cleanup and the stall guard must still terminate the
	// run (possibly via the maxPhases cap) rather than hang.
	g := gen.GnpAvgDegree(5, 300, 12)
	p := ParamsPractical(0.1, 5)
	p.SwitchThreshold = func(int) float64 { return 0 }
	res, err := Run(context.Background(), g, p)
	if err != nil {
		// A clean non-convergence error is acceptable; hanging is not.
		if !strings.Contains(err.Error(), "phases") {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if res.Phases > maxPhases {
		t.Fatalf("ran %d phases, past the cap of %d", res.Phases, maxPhases)
	}
}

func TestCouplingOnAblatedRuns(t *testing.T) {
	// AnalyzeCoupling must work for ablated parameter sets too (it re-derives
	// thresholds from the same switches).
	g := gen.GnpAvgDegree(6, 1000, 48)
	for _, mutate := range []func(*Params){
		func(p *Params) { p.FixedThresholds = true },
		func(p *Params) { p.BiasCoefficient = 0 },
	} {
		p := ParamsPractical(0.1, 6)
		p.CollectCoupling = true
		mutate(&p)
		res, err := Run(context.Background(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, cp := range res.Coupling {
			if _, err := AnalyzeCoupling(cp, p); err != nil {
				t.Fatal(err)
			}
		}
	}
}
