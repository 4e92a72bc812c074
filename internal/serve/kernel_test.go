package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	mwvc "repro"
	"repro/internal/fault"
)

// TestKernelConcurrentFirstSolves submits several first solves of one new
// graph at once, with distinct seeds so none coalesces. Each may reduce or
// take a kernel another already stored; every result is the library's
// solve of the same tuple bit for bit, the solves that took a kernel are
// exactly those counted as reused, and the next solve takes the kernel.
func TestKernelConcurrentFirstSolves(t *testing.T) {
	const first = 4
	e := newTestEngine(t, Config{Workers: first, QueueDepth: 16, SolverParallelism: 1})
	g := testGraph(t, 7, 2000, 4) // sparse: reduction bites, so the kernel has a trace
	hash := addGraph(t, e, g)
	reqs := make([]*Request, first)
	for i := range reqs {
		req, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "mpc", Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = req
	}
	took := int64(0)
	for i, req := range reqs {
		if err := req.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		snap := req.Snapshot()
		sol, err := snap.Sol, snap.Err
		if err != nil {
			t.Fatal(err)
		}
		want, err := mwvc.Solve(context.Background(), g, mwvc.WithSeed(uint64(i+1)), mwvc.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolution(sol, want) {
			t.Fatalf("seed %d: served %+v, library %+v", i+1, sol, want)
		}
		if sol.Reduction.ReduceNS == 0 {
			took++
		}
	}
	if count, reused := e.met.reduceCount.Load(), e.met.reduceReused.Load(); count != first || reused != took || took == first {
		t.Fatalf("reduce count %d, reused %d, solves that took a kernel %d; want %d, equal, fewer than %d",
			count, reused, took, first, first)
	}
	sol := solveFresh(t, e, SolveParams{GraphHash: hash, Algorithm: "pdfast", Seed: 9})
	if sol.Reduction.ReduceNS != 0 || e.met.reduceReused.Load() != took+1 {
		t.Fatalf("the solve after the first ones reduced again (ReduceNS %d)", sol.Reduction.ReduceNS)
	}
}

// TestKernelNotStoredAfterDeadline: a first solve whose deadline expires
// once its reduce stage has begun fails, stores nothing, and the next
// solve of the graph reduces and fills the slot for the one after it.
func TestKernelNotStoredAfterDeadline(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 4, SolverParallelism: 1})
	// More than 4096 vertices, so reduce polls its context at least once.
	hash := addGraph(t, e, testGraph(t, 8, 5000, 4))
	// The first observer event of the solve is reduce-start; stalling it
	// past the deadline makes reduce run on an expired context. The
	// deadline leaves the idle worker ample time to start the solve.
	restore := fault.Enable(fault.NewInjector(0, fault.Rule{
		Point: fault.SolverStep, Every: 1, Limit: 1, Action: fault.ActDelay, Delay: 500 * time.Millisecond}))
	p := SolveParams{GraphHash: hash, Algorithm: "mpc", Seed: 1, Timeout: 250 * time.Millisecond}
	req, err := e.Submit(p)
	if err != nil {
		restore()
		t.Fatal(err)
	}
	werr := req.Wait(context.Background())
	restore()
	if werr != nil {
		t.Fatal(werr)
	}
	if err := req.Snapshot().Err; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled solve: err %v, want the deadline", err)
	}
	past, _, cancel := req.Subscribe(1)
	cancel()
	if len(past) != 1 || past[0].Kind != mwvc.KindReduceStart {
		t.Fatalf("stalled solve's events %v; want reduce-start alone", past)
	}

	p.Timeout = 0
	for i, wantReduce := range []bool{true, false} {
		p.Seed = uint64(i + 2)
		sol := solveFresh(t, e, p)
		if reduced := sol.Reduction.ReduceNS != 0; reduced != wantReduce {
			t.Fatalf("solve %d after the stalled one: reduced %v, want %v", i+1, reduced, wantReduce)
		}
	}
	if count, reused := e.met.reduceCount.Load(), e.met.reduceReused.Load(); count != 2 || reused != 1 {
		t.Fatalf("reduce count %d, reused %d; want 2 and 1", count, reused)
	}
}
