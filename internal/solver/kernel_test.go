package solver

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/reduce"
)

// byeStub is a deterministic solver with a certificate: Bar-Yehuda–Even
// over the edges in id order, raising each edge's dual by the smaller
// residual weight of its endpoints and covering that endpoint.
var byeStub = Func(func(_ context.Context, g *graph.Graph, _ Config) (*Outcome, error) {
	slack := append([]float64(nil), g.Weights()...)
	x := make([]float64, g.NumEdges())
	cover := make([]bool, g.NumVertices())
	for e := range x {
		u, v := g.Edge(graph.EdgeID(e))
		if slack[v] < slack[u] {
			u, v = v, u
		}
		x[e] = slack[u]
		slack[v] -= slack[u]
		slack[u] = 0
		cover[u] = true
	}
	return &Outcome{Cover: cover, Duals: x}, nil
})

// countReduce wraps the reduce stage in a counter of its calls until t ends.
func countReduce(t *testing.T) *atomic.Int32 {
	t.Helper()
	var calls atomic.Int32
	replaceReduce(t, func(ctx context.Context, g *graph.Graph, changed func()) (*reduce.Result, error) {
		calls.Add(1)
		return reduce.RunNotify(ctx, g, changed)
	})
	return &calls
}

// sameResult reports how a and b differ in any output bit, ReduceNS aside,
// or "" when they do not.
func sameResult(a, b *Result) string {
	switch {
	case !reflect.DeepEqual(a.Cover, b.Cover):
		return "covers differ"
	case math.Float64bits(a.Weight) != math.Float64bits(b.Weight) ||
		math.Float64bits(a.Bound) != math.Float64bits(b.Bound) ||
		math.Float64bits(a.CertifiedRatio) != math.Float64bits(b.CertifiedRatio):
		return "weight, bound or ratio bits differ"
	case a.Rounds != b.Rounds || a.Phases != b.Phases || a.Exact != b.Exact:
		return "rounds, phases or exactness differ"
	case (a.Reduction == nil) != (b.Reduction == nil):
		return "one result lacks reduction stats"
	}
	if a.Reduction != nil {
		ra, rb := *a.Reduction, *b.Reduction
		ra.ReduceNS, rb.ReduceNS = 0, 0
		if ra != rb {
			return "reduction stats differ"
		}
	}
	return ""
}

// TestKernelReuseBitIdentical solves each graph without a Kernel, then twice
// through one Kernel: the first run reduces and fills the slot, the second
// takes the stored kernel without calling reduce. All three agree on every
// output bit and, when observed, on every event; only the run that took
// the kernel reports ReduceNS 0. The overlap cases fill the slot through
// the solve that runs beside reduce, used or discarded.
func TestKernelReuseBitIdentical(t *testing.T) {
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		observe bool
		par     int
	}{
		{"reduces", starPlusPath(t), true, 1},
		{"empty-kernel", pendantStar(t, 10), true, 1},
		{"irreducible", irreducibleCycle(t), true, 1},
		{"overlap-used", gateCycle(t), false, 2},
		{"overlap-discarded", gateCyclePlusK4(t), false, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			calls := countReduce(t)
			var k Kernel
			run := func(k *Kernel) (*Result, []Event, int32) {
				t.Helper()
				var events []Event
				cfg := Config{Parallelism: c.par}
				if c.observe {
					cfg.Observer = ObserverFunc(func(e Event) { events = append(events, e) })
				}
				before := calls.Load()
				res, err := Pipeline{Solver: byeStub, Reduce: true, Config: cfg, Kernel: k}.Run(context.Background(), c.g)
				if err != nil {
					t.Fatal(err)
				}
				return res, events, calls.Load() - before
			}
			fresh, freshEv, n0 := run(nil)
			fill, fillEv, n1 := run(&k)
			reuse, reuseEv, n2 := run(&k)
			if n0 != 1 || n1 != 1 || n2 != 0 {
				t.Fatalf("reduce calls %d, %d, %d; want 1 without the slot, 1 filling it, 0 taking it", n0, n1, n2)
			}
			if fresh.Reduction.ReduceNS <= 0 || fill.Reduction.ReduceNS <= 0 || reuse.Reduction.ReduceNS != 0 {
				t.Fatalf("ReduceNS %d, %d, %d; want positive, positive, 0",
					fresh.Reduction.ReduceNS, fill.Reduction.ReduceNS, reuse.Reduction.ReduceNS)
			}
			for _, r := range []*Result{fill, reuse} {
				if d := sameResult(fresh, r); d != "" {
					t.Fatal(d)
				}
			}
			if !reflect.DeepEqual(freshEv, fillEv) || !reflect.DeepEqual(freshEv, reuseEv) {
				t.Fatalf("events %v, %v, %v; want one stream", freshEv, fillEv, reuseEv)
			}
			if c.observe && len(freshEv) < 2 {
				t.Fatalf("events %v lack the reduce stage", freshEv)
			}
		})
	}
}

// TestKernelMisuse: a slot filled from one graph refuses a solve of
// another, and a run without reduction leaves an empty slot empty.
func TestKernelMisuse(t *testing.T) {
	var k Kernel
	if _, err := (Pipeline{Solver: byeStub, Kernel: &k}).Run(context.Background(), starPlusPath(t)); err != nil {
		t.Fatal(err)
	}
	if k.entry.Load() != nil {
		t.Fatal("a run without reduction filled the slot")
	}
	g1 := starPlusPath(t)
	if _, err := (Pipeline{Solver: byeStub, Reduce: true, Kernel: &k}).Run(context.Background(), g1); err != nil {
		t.Fatal(err)
	}
	if e := k.entry.Load(); e == nil || e.g != g1 {
		t.Fatal("a reduced run did not fill the slot from its graph")
	}
	g2 := starPlusPath(t) // equal content, another *Graph
	_, err := Pipeline{Solver: byeStub, Reduce: true, Kernel: &k}.Run(context.Background(), g2)
	if !errors.Is(err, errKernelGraph) {
		t.Fatalf("solving g2 through g1's slot: err %v, want %v", err, errKernelGraph)
	}
	if _, err := (Pipeline{Solver: byeStub, Kernel: &k}).Run(context.Background(), g2); err != nil {
		t.Fatalf("without reduction the slot is not read, yet: %v", err)
	}
}

// TestKernelNotStoredOnFailure: a reduction that fails or is cancelled
// leaves the slot empty, and the next run fills it. A solve that fails
// after a successful reduction keeps that reduction.
func TestKernelNotStoredOnFailure(t *testing.T) {
	g := starPlusPath(t)
	var k Kernel
	broken := errors.New("reduce failed")
	for _, fail := range []func(context.Context, context.CancelFunc) error{
		func(context.Context, context.CancelFunc) error { return broken },
		func(ctx context.Context, cancel context.CancelFunc) error { cancel(); return ctx.Err() },
	} {
		ctx, cancel := context.WithCancel(context.Background())
		old := runReduce
		runReduce = func(rctx context.Context, _ *graph.Graph, _ func()) (*reduce.Result, error) {
			return nil, fail(rctx, cancel)
		}
		_, err := Pipeline{Solver: byeStub, Reduce: true, Kernel: &k}.Run(ctx, g)
		runReduce = old
		cancel()
		if err == nil {
			t.Fatal("a failed reduction returned no error")
		}
		if k.entry.Load() != nil {
			t.Fatalf("the slot stored a reduction that returned %v", err)
		}
	}

	solveErr := errors.New("solve failed")
	fails := Func(func(context.Context, *graph.Graph, Config) (*Outcome, error) { return nil, solveErr })
	if _, err := (Pipeline{Solver: fails, Reduce: true, Kernel: &k}).Run(context.Background(), g); err != solveErr {
		t.Fatalf("err %v, want the solver's", err)
	}
	calls := countReduce(t)
	res, err := Pipeline{Solver: byeStub, Reduce: true, Kernel: &k}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 || res.Reduction.ReduceNS != 0 {
		t.Fatalf("reduce calls %d, ReduceNS %d; want the kernel stored before the solve failed",
			calls.Load(), res.Reduction.ReduceNS)
	}
}

// TestKernelConcurrentFirstRuns starts several first runs of one graph
// through one empty slot at once, with and without the overlap. Each may
// reduce, none blocks another, every result is the unshared run's, and the
// slot ends up filled.
func TestKernelConcurrentFirstRuns(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
		par  int
	}{
		{"reduces", starPlusPath(t), 1},
		{"overlap", gateCycle(t), 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := Pipeline{Solver: byeStub, Reduce: true, Config: Config{Parallelism: c.par}}
			want, err := p.Run(context.Background(), c.g)
			if err != nil {
				t.Fatal(err)
			}
			calls := countReduce(t)
			var k Kernel
			p.Kernel = &k
			const runs = 6
			results := make([]*Result, runs)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					res, err := p.Run(context.Background(), c.g)
					if err != nil {
						t.Error(err)
						return
					}
					results[i] = res
				}()
			}
			close(start)
			wg.Wait()
			if t.Failed() {
				return
			}
			for _, r := range results {
				if d := sameResult(want, r); d != "" {
					t.Fatal(d)
				}
			}
			if n := calls.Load(); n < 1 || n > runs {
				t.Fatalf("reduce ran %d times for %d runs", n, runs)
			}
			if k.entry.Load() == nil {
				t.Fatal("the slot is empty after the first runs")
			}
		})
	}
}
