package solver

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/reduce"
	"repro/internal/verify"
)

// gateCycle is a 5-cycle weighted 10..14. Every vertex has degree 2 and
// weighs less than 2·10, so reduce.OnlyDomination passes, and no closed
// neighborhood contains another, so nothing reduces.
func gateCycle(t *testing.T) *graph.Graph {
	t.Helper()
	return gateGraph(t, false)
}

// gateCyclePlusK4 is gateCycle beside a K4 weighted 10..13. It passes the
// gate too, but in the K4 domination forces the three lightest vertices and
// the heaviest drops as isolated, so the kernel is the 5-cycle.
func gateCyclePlusK4(t *testing.T) *graph.Graph {
	t.Helper()
	return gateGraph(t, true)
}

func gateGraph(t *testing.T, k4 bool) *graph.Graph {
	t.Helper()
	n := 5
	if k4 {
		n = 9
	}
	b := graph.NewBuilder(n)
	for i := 0; i < 5; i++ {
		b.SetWeight(graph.Vertex(i), float64(10+i))
		b.AddEdge(graph.Vertex(i), graph.Vertex((i+1)%5))
	}
	if k4 {
		for i := 5; i < 9; i++ {
			b.SetWeight(graph.Vertex(i), float64(5+i))
			for j := i + 1; j < 9; j++ {
				b.AddEdge(graph.Vertex(i), graph.Vertex(j))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reduce.OnlyDomination(g) {
		t.Fatal("test graph fails the gate")
	}
	return g
}

// allCover returns the all-vertices cover of g, without a certificate.
func allCover(g *graph.Graph) *Outcome {
	cover := make([]bool, g.NumVertices())
	for i := range cover {
		cover[i] = true
	}
	return &Outcome{Cover: cover}
}

// replaceReduce swaps the pipeline's reduce stage for fn until t ends.
func replaceReduce(t *testing.T, fn func(context.Context, *graph.Graph, func()) (*reduce.Result, error)) {
	t.Helper()
	old := runReduce
	runReduce = fn
	t.Cleanup(func() { runReduce = old })
}

// waitOr blocks until ch is ready or d has passed, and reports which.
func waitOr(ch <-chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

// TestOverlapUsedOnIrreducibleInput: on a gate-passing graph that does not
// reduce, the solver runs once, on g itself, and starts before reduce.Run
// returns.
func TestOverlapUsedOnIrreducibleInput(t *testing.T) {
	g := gateCycle(t)
	started := make(chan struct{})
	var calls atomic.Int32
	var saw atomic.Pointer[graph.Graph]
	stub := Func(func(_ context.Context, h *graph.Graph, _ Config) (*Outcome, error) {
		if calls.Add(1) == 1 {
			close(started)
		}
		saw.Store(h)
		return allCover(h), nil
	})
	replaceReduce(t, func(ctx context.Context, g *graph.Graph, changed func()) (*reduce.Result, error) {
		if !waitOr(started, 10*time.Second) {
			t.Error("the solver had not started when reduce.Run returned")
		}
		return reduce.RunNotify(ctx, g, changed)
	})
	res, err := Pipeline{Solver: stub, Reduce: true, Config: Config{Parallelism: 2}}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 || saw.Load() != g {
		t.Fatalf("solver called %d times, on the input: %v; want once, on the input", n, saw.Load() == g)
	}
	if res.Reduction == nil || res.Reduction.KernelVertices != 5 || res.Reduction.ReduceNS <= 0 {
		t.Fatalf("reduction stats: %+v", res.Reduction)
	}
	if ok, _ := verify.IsCover(g, res.Cover); !ok || res.Weight != 60 {
		t.Fatalf("cover valid %v, weight %v; want the all-vertices cover, 60", ok, res.Weight)
	}
}

// TestOverlapCancelledWhenARuleFires: on a gate-passing graph that reduces,
// the overlap sees its context cancelled and has returned before the kernel
// solve starts.
func TestOverlapCancelledWhenARuleFires(t *testing.T) {
	g := gateCyclePlusK4(t)
	var specCalls, kernelCalls atomic.Int32
	var cancelled, returned atomic.Bool
	stub := Func(func(ctx context.Context, h *graph.Graph, _ Config) (*Outcome, error) {
		if h != g {
			kernelCalls.Add(1)
			if !returned.Load() {
				t.Error("the kernel solve started before the overlap returned")
			}
			return allCover(h), nil
		}
		specCalls.Add(1)
		defer returned.Store(true)
		if waitOr(ctx.Done(), 10*time.Second) {
			cancelled.Store(true)
		}
		time.Sleep(20 * time.Millisecond) // a pipeline that does not wait starts the kernel solve now
		return nil, ctx.Err()
	})
	res, err := Pipeline{Solver: stub, Reduce: true, Config: Config{Parallelism: 2}}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if specCalls.Load() != 1 || kernelCalls.Load() != 1 {
		t.Fatalf("solver calls: %d on the input, %d on the kernel; want 1 and 1", specCalls.Load(), kernelCalls.Load())
	}
	if !cancelled.Load() {
		t.Fatal("the overlap's context was not cancelled when a rule fired")
	}
	if r := res.Reduction; r.KernelVertices != 5 || r.Domination != 3 || r.Isolated != 1 {
		t.Fatalf("reduction stats: %+v", r)
	}
	if ok, _ := verify.IsCover(g, res.Cover); !ok {
		t.Fatal("lifted cover invalid")
	}
}

// TestNoOverlap: with an observer attached, at Parallelism 1, or on a graph
// that fails the gate, the solver is never called while reduce runs.
func TestNoOverlap(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
		cfg  Config
	}{
		{"observer", gateCycle(t), Config{Parallelism: 2, Observer: ObserverFunc(func(Event) {})}},
		{"parallelism-1", gateCycle(t), Config{Parallelism: 1}},
		{"gate-fails", irreducibleCycle(t), Config{Parallelism: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var inReduce atomic.Bool
			var calls atomic.Int32
			called := make(chan struct{}, 1)
			stub := Func(func(_ context.Context, h *graph.Graph, _ Config) (*Outcome, error) {
				if inReduce.Load() {
					t.Error("solver called while reduce runs")
				}
				calls.Add(1)
				select {
				case called <- struct{}{}:
				default:
				}
				return allCover(h), nil
			})
			replaceReduce(t, func(ctx context.Context, g *graph.Graph, changed func()) (*reduce.Result, error) {
				inReduce.Store(true)
				defer inReduce.Store(false)
				// Give a wrongly started overlap time to reach the solver.
				waitOr(called, 50*time.Millisecond)
				return reduce.RunNotify(ctx, g, changed)
			})
			if _, err := (Pipeline{Solver: stub, Reduce: true, Config: c.cfg}).Run(context.Background(), c.g); err != nil {
				t.Fatal(err)
			}
			if n := calls.Load(); n != 1 {
				t.Fatalf("solver called %d times, want 1", n)
			}
		})
	}
}

// TestOverlapWaitedForOnCancel: when the caller's context is cancelled
// during reduce, Run returns the cancellation only after the overlap's
// solve has returned.
func TestOverlapWaitedForOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var returned atomic.Bool
	stub := Func(func(sctx context.Context, _ *graph.Graph, _ Config) (*Outcome, error) {
		defer returned.Store(true)
		waitOr(sctx.Done(), 10*time.Second)
		time.Sleep(20 * time.Millisecond)
		return nil, sctx.Err()
	})
	replaceReduce(t, func(rctx context.Context, _ *graph.Graph, _ func()) (*reduce.Result, error) {
		cancel() // reduce.Run polls the context and returns its error
		return nil, rctx.Err()
	})
	_, err := Pipeline{Solver: stub, Reduce: true, Config: Config{Parallelism: 2}}.Run(ctx, gateCycle(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if !returned.Load() {
		t.Fatal("Run returned before the overlap's solve did")
	}
}

// TestOverlapPanicAndError: the overlap's panic is re-raised on the
// caller's goroutine only when its result is used, and a used error comes
// back unchanged.
func TestOverlapPanicAndError(t *testing.T) {
	boom := errors.New("solver panic")
	panicsOnInput := func(g *graph.Graph) Solver {
		return Func(func(_ context.Context, h *graph.Graph, _ Config) (*Outcome, error) {
			if h == g {
				panic(boom)
			}
			return allCover(h), nil
		})
	}
	run := func(s Solver, g *graph.Graph) (res *Result, panicked any, err error) {
		defer func() { panicked = recover() }()
		res, err = Pipeline{Solver: s, Reduce: true, Config: Config{Parallelism: 2}}.Run(context.Background(), g)
		return res, nil, err
	}

	g := gateCycle(t)
	if _, p, _ := run(panicsOnInput(g), g); p != boom {
		t.Fatalf("used overlap: recovered %v, want the solver's panic value", p)
	}

	g = gateCyclePlusK4(t)
	res, p, err := run(panicsOnInput(g), g)
	if p != nil || err != nil {
		t.Fatalf("discarded overlap: panic %v, err %v; want neither", p, err)
	}
	if ok, _ := verify.IsCover(g, res.Cover); !ok {
		t.Fatal("discarded overlap: lifted cover invalid")
	}

	g = gateCycle(t)
	want := errors.New("solver failed")
	fails := Func(func(context.Context, *graph.Graph, Config) (*Outcome, error) { return nil, want })
	if _, _, err := run(fails, g); err != want {
		t.Fatalf("used overlap: err %v, want the solver's error unchanged", err)
	}
}
