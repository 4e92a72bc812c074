package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	mwvc "repro"
	"repro/internal/graph"
	"repro/internal/solver"
)

// The gated test solver makes queue and deadline behavior deterministic: it
// blocks until the test releases its gate (or the request deadline fires),
// then returns the trivial all-vertices cover.
var gate struct {
	mu sync.Mutex
	ch chan struct{}
}

// setGate installs a fresh gate and returns its release function. Tests that
// use the gated solver must call setGate first; release is idempotent via
// sync.Once in the caller's hands (close once).
func setGate(t *testing.T) (release func()) {
	ch := make(chan struct{})
	gate.mu.Lock()
	gate.ch = ch
	gate.mu.Unlock()
	var once sync.Once
	release = func() { once.Do(func() { close(ch) }) }
	t.Cleanup(func() {
		release()
		gate.mu.Lock()
		gate.ch = nil
		gate.mu.Unlock()
	})
	return release
}

func init() {
	solver.Register(solver.Meta{
		Name:    "test-gated",
		Rank:    1000,
		Tier:    solver.TierAccurate,
		Summary: "test-only solver that blocks until released",
	}, solver.Func(func(ctx context.Context, g *graph.Graph, cfg solver.Config) (*solver.Outcome, error) {
		gate.mu.Lock()
		ch := gate.ch
		gate.mu.Unlock()
		if ch != nil {
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		cover := make([]bool, g.NumVertices())
		for i := range cover {
			cover[i] = true
		}
		return &solver.Outcome{Cover: cover}, nil
	}))
}

func testGraph(t *testing.T, seed uint64, n int, d float64) *graph.Graph {
	t.Helper()
	return mwvc.RandomGraph(seed, n, d)
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func addGraph(t *testing.T, e *Engine, g *graph.Graph) string {
	t.Helper()
	sg, _, err := e.Graphs().Add(g)
	if err != nil {
		t.Fatal(err)
	}
	return sg.Hash
}

func TestGraphStoreContentAddressing(t *testing.T) {
	s := NewGraphStore(10)
	g1 := testGraph(t, 1, 40, 4)
	g2 := testGraph(t, 2, 40, 4)

	a1, new1, err := s.Add(g1)
	if err != nil || !new1 {
		t.Fatalf("first add: new=%v err=%v", new1, err)
	}
	// The same content re-serialized hashes identically: round-trip through
	// the text format and re-add.
	var buf bytes.Buffer
	if err := graph.Write(&buf, g1); err != nil {
		t.Fatal(err)
	}
	g1b, err := graph.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a1b, new1b, err := s.Add(g1b)
	if err != nil || new1b {
		t.Fatalf("re-add of identical content: new=%v err=%v", new1b, err)
	}
	if a1b.Hash != a1.Hash {
		t.Fatalf("content hash unstable: %s vs %s", a1.Hash, a1b.Hash)
	}
	a2, _, err := s.Add(g2)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Hash == a1.Hash {
		t.Fatalf("distinct graphs collided on %s", a1.Hash)
	}
	if s.Len() != 2 {
		t.Fatalf("store len %d, want 2", s.Len())
	}
	if !strings.HasPrefix(a1.Hash, "sha256:") {
		t.Fatalf("hash %q missing scheme prefix", a1.Hash)
	}
}

func TestGraphStoreCap(t *testing.T) {
	s := NewGraphStore(2)
	for seed := uint64(1); seed <= 2; seed++ {
		if _, _, err := s.Add(testGraph(t, seed, 20, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Add(testGraph(t, 3, 20, 3)); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("overfull add: %v, want ErrStoreFull", err)
	}
	// Re-adding stored content still works at cap (it is a lookup, not an add).
	if _, isNew, err := s.Add(testGraph(t, 1, 20, 3)); err != nil || isNew {
		t.Fatalf("re-add at cap: new=%v err=%v", isNew, err)
	}
}

func TestSolveAndCacheHit(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, QueueDepth: 8})
	hash := addGraph(t, e, testGraph(t, 1, 120, 6))
	params := SolveParams{GraphHash: hash, Algorithm: "mpc", Epsilon: 0.1, Seed: 7}

	req1, err := e.Submit(params)
	if err != nil {
		t.Fatal(err)
	}
	if err := req1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap1 := req1.Snapshot()
	sol1, err := snap1.Sol, snap1.Err
	if err != nil {
		t.Fatal(err)
	}
	if snap1.Cached {
		t.Fatal("first solve reported cached")
	}
	if sol1.Weight <= 0 || sol1.Rounds == 0 {
		t.Fatalf("implausible solution: %+v", sol1)
	}

	req2, err := e.Submit(params)
	if err != nil {
		t.Fatal(err)
	}
	if err := req2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap2 := req2.Snapshot()
	sol2, err := snap2.Sol, snap2.Err
	if err != nil {
		t.Fatal(err)
	}
	if !snap2.Cached {
		t.Fatal("identical request not served from cache")
	}
	if sol2 != sol1 {
		t.Fatal("cache returned a different solution object")
	}
	m := e.Metrics()
	if m.CacheHits != 1 || m.SolveCount != 1 || m.Done != 2 {
		t.Fatalf("metrics after cache hit: %+v", m)
	}

	// Any parameter change misses the cache.
	req3, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "mpc", Epsilon: 0.1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := req3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if req3.Snapshot().Cached {
		t.Fatal("different seed served from cache")
	}
}

// TestMetricsCountedBeforeWaitReturns pins the completion order: the engine
// moves every counter and gauge a finished request touches before it
// releases the request's waiters, so a Metrics snapshot taken as soon as
// Wait returns already includes the request. Each cycle runs, one after the
// other, a fresh solve, a cache hit at admission, a coalesced follower and a
// failure, and compares the snapshot with the running totals.
func TestMetricsCountedBeforeWaitReturns(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 4})
	hash := addGraph(t, e, testGraph(t, 1, 60, 4))
	var done, failed, hits, coalesced int64
	check := func(what string) {
		t.Helper()
		m := e.Metrics()
		if m.Done != done || m.Failed != failed || m.CacheHits != hits || m.Coalesced != coalesced || m.InFlight != 0 {
			t.Fatalf("%s: metrics %+v; want done %d, failed %d, cache hits %d, coalesced %d, none in flight",
				what, m, done, failed, hits, coalesced)
		}
	}
	submitWait := func(p SolveParams) *Request {
		t.Helper()
		r, err := e.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for i := uint64(0); i < 25; i++ {
		p := SolveParams{GraphHash: hash, Algorithm: "mpc", Epsilon: 0.1, Seed: 100 + i}
		submitWait(p)
		done++
		check("fresh solve")

		if !submitWait(p).Snapshot().Cached {
			t.Fatal("repeat not served from the cache")
		}
		done++
		hits++
		check("cache hit")

		release := setGate(t)
		gated := SolveParams{GraphHash: hash, Algorithm: "test-gated", Seed: 1000 + i}
		leader, err := e.Submit(gated)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, leader, StatusRunning)
		follower, err := e.Submit(gated)
		if err != nil {
			t.Fatal(err)
		}
		if !follower.Snapshot().Coalesced {
			t.Fatal("duplicate of a running request not coalesced")
		}
		release()
		if err := follower.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		done += 2
		coalesced++
		check("coalesced follower")

		release = setGate(t) // held: the deadline fails the request
		r := submitWait(SolveParams{GraphHash: hash, Algorithm: "test-gated", Seed: 2000 + i, Timeout: time.Millisecond})
		release()
		if err := r.Snapshot().Err; err == nil {
			t.Fatal("request past its deadline succeeded")
		}
		failed++
		check("failure")
	}
}

func TestSubmitValidation(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 2})
	hash := addGraph(t, e, testGraph(t, 1, 30, 3))
	if _, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "no-such-algo"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := e.Submit(SolveParams{GraphHash: "sha256:feed", Algorithm: "mpc"}); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: %v, want ErrUnknownGraph", err)
	}
}

func TestQueueBackpressure(t *testing.T) {
	release := setGate(t)
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 1})
	hash := addGraph(t, e, testGraph(t, 1, 30, 3))
	params := SolveParams{GraphHash: hash, Algorithm: "test-gated"}

	// First request occupies the single worker...
	req1, err := e.Submit(params)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, req1, StatusRunning)
	// ...second fills the queue (vary the seed so the cache never matches)...
	req2, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "test-gated", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// ...third must be rejected immediately with backpressure.
	if _, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "test-gated", Seed: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull queue: %v, want ErrQueueFull", err)
	}
	if m := e.Metrics(); m.Rejected != 1 {
		t.Fatalf("rejected count %d, want 1", m.Rejected)
	}

	release()
	for _, r := range []*Request{req1, req2} {
		if err := r.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := r.Snapshot().Err; err != nil {
			t.Fatal(err)
		}
	}
	// With the worker free again, new requests are admitted.
	req4, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "test-gated", Seed: 4})
	if err != nil {
		t.Fatalf("post-drain submit rejected: %v", err)
	}
	if err := req4.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// waitStatus polls until the request reaches the wanted state (observer-free
// states like "running" have no completion channel to block on).
func waitStatus(t *testing.T, r *Request, want Status) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.Snapshot().Status == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("request %s never reached %s (now %s)", r.ID, want, r.Snapshot().Status)
}

func TestPerRequestDeadline(t *testing.T) {
	setGate(t) // never released before cleanup: the deadline must fire
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 2})
	hash := addGraph(t, e, testGraph(t, 1, 30, 3))
	req, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "test-gated", Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := req.Snapshot()
	if !errors.Is(snap.Err, context.DeadlineExceeded) {
		t.Fatalf("deadline error not surfaced: %v", snap.Err)
	}
	if snap.Status != StatusFailed {
		t.Fatalf("status %s, want failed", snap.Status)
	}
	if msg := snap.ErrMsg; !strings.Contains(msg, "deadline exceeded") {
		t.Fatalf("error message %q not unified", msg)
	}
	if m := e.Metrics(); m.Failed != 1 {
		t.Fatalf("failed count %d, want 1", m.Failed)
	}
}

// TestDeadlineCoversQueueWait pins that the per-request clock starts at
// admission: a request whose deadline expires while it waits in the queue
// fails with the deadline error when dequeued instead of starting a solve
// its client has already given up on.
func TestDeadlineCoversQueueWait(t *testing.T) {
	release := setGate(t)
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 2})
	hash := addGraph(t, e, testGraph(t, 1, 30, 3))
	// Occupy the single worker far beyond the second request's deadline.
	req1, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "test-gated", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, req1, StatusRunning)
	req2, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "test-gated", Seed: 2, Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // req2's deadline passes while queued
	release()
	if err := req2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := req2.Snapshot().Err; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-past-deadline request: %v, want DeadlineExceeded", err)
	}
	if msg := req2.Snapshot().ErrMsg; !strings.Contains(msg, "deadline exceeded") {
		t.Fatalf("error message %q not unified", msg)
	}
	// The worker stayed healthy: req1 completed normally.
	if err := req1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := req1.Snapshot().Err; err != nil {
		t.Fatal(err)
	}
}

func TestRequestTraceObserved(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 2})
	hash := addGraph(t, e, testGraph(t, 3, 150, 8))
	req, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "mpc", Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := req.Snapshot()
	sol, err := snap.Sol, snap.Err
	if err != nil {
		t.Fatal(err)
	}
	past, live, cancel := req.Subscribe(16)
	defer cancel()
	if _, ok := <-live; ok {
		t.Fatal("live channel of finished request not closed")
	}
	rounds := 0
	for _, ev := range past {
		if ev.Kind == mwvc.KindRound {
			rounds++
		}
	}
	if rounds != sol.Rounds {
		t.Fatalf("trace has %d round events, solution says %d rounds", rounds, sol.Rounds)
	}
	if snap.Rounds != sol.Rounds {
		t.Fatalf("snapshot rounds %d != solution %d", snap.Rounds, sol.Rounds)
	}
	m := e.Metrics()
	if m.RoundsTotal != int64(sol.Rounds) || m.EventsTotal < int64(len(past)) {
		t.Fatalf("observer metrics not fed: %+v (rounds want %d)", m, sol.Rounds)
	}
}

func TestEngineCloseRejectsAndDrains(t *testing.T) {
	release := setGate(t)
	e, err := NewEngine(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	hash := addGraph(t, e, testGraph(t, 1, 30, 3))
	req1, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "test-gated"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, req1, StatusRunning)
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	release()
	<-closed
	if _, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "test-gated", Seed: 9}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if err := req1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := req1.Snapshot().Err; err != nil {
		t.Fatalf("in-flight solve not completed on close: %v", err)
	}
	e.Close() // idempotent
}

func TestRequestRetention(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, QueueDepth: 8})
	hash := addGraph(t, e, testGraph(t, 1, 40, 4))
	// One solve, then retainRequests+1 cache hits of it, each finished
	// before the next is submitted.
	var ids []string
	for i := 0; i < retainRequests+2; i++ {
		req, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "greedy"})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if cached := req.Snapshot().Cached; cached != (i > 0) {
			t.Fatalf("request %d: cached %v, want %v", i, cached, i > 0)
		}
		ids = append(ids, req.ID)
	}
	// Only the last retainRequests stay addressable: the two oldest go.
	for i, id := range ids {
		if _, ok := e.Lookup(id); ok != (i >= 2) {
			t.Fatalf("request %d of %d: addressable %v, want %v", i, len(ids), ok, i >= 2)
		}
	}
}

// TestCacheEvictsOldestKey fills the solution cache one key past its bound,
// in ascending and in descending seed order (every other field equal):
// admitting the last key evicts the first one admitted and keeps the rest.
func TestCacheEvictsOldestKey(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed func(i uint64) uint64 // the i-th seed admitted
		gone uint64
		kept []uint64
	}{
		{"ascending", func(i uint64) uint64 { return i }, 0, []uint64{1, maxCacheEntries}},
		{"descending", func(i uint64) uint64 { return maxCacheEntries - i }, maxCacheEntries, []uint64{0, 1, maxCacheEntries - 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, Config{Workers: 1, QueueDepth: 8})
			hash := addGraph(t, e, testGraph(t, 1, 40, 4))
			p := SolveParams{GraphHash: hash, Algorithm: "greedy", Epsilon: 0.1}
			for i := uint64(0); i <= maxCacheEntries; i++ {
				p.Seed = tc.seed(i)
				solveFresh(t, e, p)
			}
			cached := func(seed uint64) bool {
				p.Seed = seed
				e.mu.Lock()
				defer e.mu.Unlock()
				_, ok := e.cache[keyOf(p)]
				return ok
			}
			if cached(tc.gone) {
				t.Fatalf("seed %d, the oldest key, survived the eviction", tc.gone)
			}
			for _, seed := range tc.kept {
				if !cached(seed) {
					t.Fatalf("eviction dropped seed %d, not the oldest key", seed)
				}
			}
		})
	}
}

// solveFresh submits one solve to e, waits for it, and requires a solver
// execution rather than a cache hit.
func solveFresh(t *testing.T, e *Engine, p SolveParams) *mwvc.Solution {
	t.Helper()
	req, err := e.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := req.Snapshot()
	sol, err := snap.Sol, snap.Err
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cached {
		t.Fatalf("%+v answered from cache on first submission", p)
	}
	return sol
}

// sameSolution reports whether a and b agree on every output bit, the
// reduce time aside.
func sameSolution(a, b *mwvc.Solution) bool {
	ca, cb := *a, *b
	ra, rb := *a.Reduction, *b.Reduction
	ra.ReduceNS, rb.ReduceNS = 0, 0
	ca.Reduction, cb.Reduction = &ra, &rb
	return reflect.DeepEqual(ca, cb) &&
		math.Float64bits(a.Weight) == math.Float64bits(b.Weight) &&
		math.Float64bits(a.Bound) == math.Float64bits(b.Bound)
}

func TestReductionCacheKeyAndMetrics(t *testing.T) {
	// The same (graph, algorithm, ε, seed) tuple with and without reduction
	// is two different solves: the kernelized run must not be answered from
	// the raw run's cache entry, and vice versa — only true repeats hit.
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 8})
	g := testGraph(t, 3, 60, 3) // sparse: reduction bites
	hash := addGraph(t, e, g)
	run := func(noReduce bool) *mwvc.Solution {
		t.Helper()
		return solveFresh(t, e, SolveParams{GraphHash: hash, Algorithm: "mpc", Seed: 5, NoReduce: noReduce})
	}
	reduced := run(false)
	raw := run(true)
	if reduced.Reduction == nil || raw.Reduction != nil {
		t.Fatalf("reduction stats: reduced=%v raw=%v", reduced.Reduction, raw.Reduction)
	}
	// Exact repeats (either flavor) are cache hits.
	for _, noReduce := range []bool{false, true} {
		req, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "mpc", Seed: 5, NoReduce: noReduce})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !req.Snapshot().Cached {
			t.Fatalf("repeat with noReduce=%v missed the cache", noReduce)
		}
	}
	m := e.Metrics()
	if m.CacheHits != 2 || m.SolveCount != 2 {
		t.Fatalf("cache hits %d / solves %d, want 2/2", m.CacheHits, m.SolveCount)
	}
	if m.ReduceCount != 1 {
		t.Fatalf("reduce count %d, want exactly the one kernelized solve", m.ReduceCount)
	}
	if m.ReduceVerticesRemoved <= 0 || m.ReduceSeconds < 0 {
		t.Fatalf("reduce metrics not threaded: %+v", m)
	}
	var b strings.Builder
	if err := WriteMetrics(&b, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mwvc_reduce_total 1") {
		t.Fatalf("Prometheus exposition lacks mwvc_reduce_total:\n%s", b.String())
	}

	// A third fresh solve of the graph, with another seed, takes the kernel
	// the first one stored: it adds to the reduce count but no reduce time,
	// and its result is the fresh engine's bit for bit.
	p := SolveParams{GraphHash: hash, Algorithm: "mpc", Seed: 6}
	reused := solveFresh(t, e, p)
	m2 := e.Metrics()
	if m2.ReduceCount != 2 || m2.ReduceReused != 1 || m2.ReduceSeconds != m.ReduceSeconds {
		t.Fatalf("reduce count %d, reused %d, seconds %v→%v; want 2, 1 and unchanged",
			m2.ReduceCount, m2.ReduceReused, m.ReduceSeconds, m2.ReduceSeconds)
	}
	if reused.Reduction == nil || reused.Reduction.ReduceNS != 0 {
		t.Fatalf("reduction stats of the reused kernel: %+v", reused.Reduction)
	}
	e2 := newTestEngine(t, Config{Workers: 1, QueueDepth: 8})
	want := solveFresh(t, e2, SolveParams{GraphHash: addGraph(t, e2, g), Algorithm: "mpc", Seed: 6})
	if want.Reduction.ReduceNS == 0 || e2.Metrics().ReduceReused != 0 {
		t.Fatal("the fresh engine's first solve did not reduce")
	}
	if !sameSolution(reused, want) {
		t.Fatalf("solve through the stored kernel %+v, fresh engine %+v", reused, want)
	}
	b.Reset()
	if err := WriteMetrics(&b, m2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\nmwvc_reduce_reused_total 1\n") {
		t.Fatalf("Prometheus exposition lacks mwvc_reduce_reused_total:\n%s", b.String())
	}
}

func TestImprovementCacheKeyAndMetrics(t *testing.T) {
	// The same tuple with and without an improvement budget is two different
	// solves; each flavor hits only its own cache entry, the improved run
	// surfaces stats and feeds the mwvc_improve_* metrics, and the improved
	// cover is never heavier than the plain one at an identical bound.
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 8})
	// The gated solver (no gate set: immediate) returns the all-vertices
	// cover, guaranteeing the improvement stage real redundancy to remove.
	hash := addGraph(t, e, testGraph(t, 4, 200, 8))
	run := func(budgetMS int64) *mwvc.Solution {
		t.Helper()
		req, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "test-gated", Seed: 5, ImproveBudgetMS: budgetMS})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		snap := req.Snapshot()
		sol, err := snap.Sol, snap.Err
		if err != nil {
			t.Fatal(err)
		}
		if snap.Cached {
			t.Fatalf("budget=%dms answered from cache on first submission", budgetMS)
		}
		return sol
	}
	plain := run(0)
	improved := run(5000)
	if plain.Improvement != nil {
		t.Fatal("no-budget solve attached improvement stats")
	}
	if improved.Improvement == nil {
		t.Fatal("budgeted solve lost its improvement stats")
	}
	if improved.Weight > plain.Weight {
		t.Fatalf("improved weight %v above plain %v", improved.Weight, plain.Weight)
	}
	if improved.Bound != plain.Bound {
		t.Fatalf("improvement moved the bound: %v vs %v", improved.Bound, plain.Bound)
	}
	// Exact repeats (either flavor) are cache hits.
	for _, budget := range []int64{0, 5000} {
		req, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "test-gated", Seed: 5, ImproveBudgetMS: budget})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !req.Snapshot().Cached {
			t.Fatalf("repeat with budget=%dms missed the cache", budget)
		}
	}
	m := e.Metrics()
	if m.CacheHits != 2 || m.SolveCount != 2 {
		t.Fatalf("cache hits %d / solves %d, want 2/2", m.CacheHits, m.SolveCount)
	}
	if m.ImproveCount != 1 {
		t.Fatalf("improve count %d, want exactly the one budgeted solve", m.ImproveCount)
	}
	if m.ImproveSteps <= 0 || m.ImproveWeightRemoved <= 0 {
		t.Fatalf("improve metrics not threaded: %+v", m)
	}
	var b strings.Builder
	if err := WriteMetrics(&b, m); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mwvc_improve_total 1", "mwvc_improve_steps_total", "mwvc_improve_weight_removed_total"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("Prometheus exposition lacks %s:\n%s", want, b.String())
		}
	}
}

func TestImproveBudgetClamped(t *testing.T) {
	// Negative budgets normalize to 0 (the same cache entry as "off");
	// budgets above MaxTimeout clamp to it so a request cannot buy more
	// improvement wall-clock than the engine allows a whole solve.
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 8, MaxTimeout: time.Second})
	hash := addGraph(t, e, testGraph(t, 4, 40, 3))
	req, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "greedy", ImproveBudgetMS: -7})
	if err != nil {
		t.Fatal(err)
	}
	if req.Params.ImproveBudgetMS != 0 {
		t.Fatalf("negative budget kept: %d", req.Params.ImproveBudgetMS)
	}
	if err := req.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	req2, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "greedy", ImproveBudgetMS: 3_600_000})
	if err != nil {
		t.Fatal(err)
	}
	if req2.Params.ImproveBudgetMS != 1000 {
		t.Fatalf("oversized budget not clamped to MaxTimeout: %d", req2.Params.ImproveBudgetMS)
	}
	if err := req2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The normalized (not the raw) value is the cache key: a repeat with a
	// different oversized budget that clamps to the same value must hit.
	req3, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "greedy", ImproveBudgetMS: 7_200_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := req3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !req3.Snapshot().Cached {
		t.Fatal("clamp-equivalent budget missed the cache")
	}
}
