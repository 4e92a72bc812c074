package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	mwvc "repro"
	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/solver"
)

// Config sizes the engine. The zero value is usable: every field has a
// default chosen so a fresh engine saturates the machine without
// oversubscribing it.
type Config struct {
	// Workers is the number of solve workers — the maximum number of solves
	// in flight at once. Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds the FIFO request queue; a Submit beyond it fails
	// fast with ErrQueueFull (HTTP 429) instead of queueing unboundedly.
	// Default: 4 × Workers.
	QueueDepth int
	// SolverParallelism is the WithParallelism passed to each solve, so that
	// Workers concurrent solves share the machine instead of each grabbing
	// GOMAXPROCS worth of simulated machines. Default: GOMAXPROCS/Workers,
	// at least 1.
	SolverParallelism int
	// DefaultTimeout applies to requests that specify no deadline (default
	// 60s); MaxTimeout caps what a request may ask for (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxGraphs caps the graph store (see NewGraphStore; default 1024).
	MaxGraphs int
	// DataDir, when non-empty, makes the graph store durable: uploads are
	// fsynced to this directory before they are acknowledged, and a restart
	// recovers every acknowledged graph (see OpenGraphStore). Empty keeps
	// the store in-memory only.
	DataDir string
	// DegradeEnabled turns on overload-aware degradation: once the queue
	// holds three quarters of its depth, eligible new requests run the fast
	// tier's preferred solver (the one a `tier: "fast"` request resolves
	// to) with a tightened improvement budget instead of waiting full-cost
	// in a deep queue, and their responses are marked degraded. Requests
	// already asking for that solver are not eligible.
	DegradeEnabled bool
}

// Engine bounds: each request's trace buffer (events beyond it are counted
// in Snapshot.TraceDropped, not kept), the solution cache, and the finished
// requests that stay addressable for GET /v1/solve/{id}. Both of the last
// two evict in FIFO order.
const (
	maxTraceEvents  = 65536
	maxCacheEntries = 4096
	retainRequests  = 1024
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.SolverParallelism <= 0 {
		c.SolverParallelism = runtime.GOMAXPROCS(0) / c.Workers
		if c.SolverParallelism < 1 {
			c.SolverParallelism = 1
		}
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 1024
	}
	return c
}

// degradedImproveBudgetMS caps the anytime-improvement budget of a degraded
// request: under overload the engine still honors the anytime contract
// (some improvement is better than none) but refuses to spend a generous
// budget per request while a queue is backing up.
const degradedImproveBudgetMS = 50

// SolveParams identifies one solve: the graph (by content hash) plus the
// parameters that determine the solver's output. Together with the
// determinism of seeded solves, that makes the tuple a complete cache key.
type SolveParams struct {
	GraphHash      string
	Algorithm      string
	Epsilon        float64
	Seed           uint64
	PaperConstants bool
	// NoReduce skips the kernelization stage (mwvc.WithoutReduction); the
	// zero value keeps the facade default of reduction on. The flag changes
	// the solver's input — and thus potentially its output — so it is part
	// of the solution-cache key.
	NoReduce bool
	// ImproveBudgetMS, when positive, enables the anytime local-search
	// improvement stage (mwvc.WithImprovement) with that many milliseconds
	// of wall-clock budget; 0 keeps the facade default of improvement off.
	// The budget changes the returned cover, so it is part of the
	// solution-cache key; values above Config.MaxTimeout are clamped to it.
	ImproveBudgetMS int64
	// Timeout is the per-request deadline; 0 means the engine default, and
	// values above Config.MaxTimeout are clamped to it. The clock starts at
	// admission, so time spent waiting in the queue counts against it — a
	// request with a 1s deadline cannot silently block for minutes behind a
	// deep queue. The deadline is not part of the cache key: a cached
	// solution satisfies any deadline.
	Timeout time.Duration
}

// Status is a request's lifecycle state.
type Status string

// The request lifecycle: queued → running → done | failed. A cache hit at
// admission goes straight to done.
const (
	// StatusQueued marks a request admitted to the FIFO queue, not yet
	// picked up by a worker.
	StatusQueued Status = "queued"
	// StatusRunning marks a request whose solve is in flight.
	StatusRunning Status = "running"
	// StatusDone marks a completed request whose Solution is available.
	StatusDone Status = "done"
	// StatusFailed marks a request that ended in an error (including a
	// blown deadline or engine shutdown).
	StatusFailed Status = "failed"
)

// settled reports whether s is a final state, done or failed.
func (s Status) settled() bool { return s == StatusDone || s == StatusFailed }

// Engine errors surfaced by Submit and by failing requests.
var (
	ErrQueueFull    = errors.New("serve: solve queue full")
	ErrUnknownGraph = errors.New("serve: unknown graph hash")
	ErrClosed       = errors.New("serve: engine closed")
	// ErrDraining rejects new work while the engine drains for shutdown;
	// in-flight and queued solves still complete. HTTP maps it to 503 with
	// Retry-After so load balancers route elsewhere.
	ErrDraining = errors.New("serve: engine draining")
	// ErrRetryable classifies transient internal failures — an injected or
	// real fault in the durable store, a recovered solver panic, a tripped
	// worker — that a client may simply retry. HTTP maps it to 503 with
	// Retry-After. The wrapped detail never includes partial results: a
	// request ends in a verified solution or a typed error, nothing between.
	ErrRetryable = errors.New("serve: transient failure, retry")
)

// Request is one admitted solve. Its exported methods are safe for
// concurrent use; the HTTP layer, trace subscribers and the solving worker
// all hold the same *Request.
type Request struct {
	// ID addresses the request in GET /v1/solve/{id}.
	ID string
	// Params are the effective solve parameters. Under degradation they may
	// differ from what the client asked for (see Degraded).
	Params SolveParams
	// Degraded marks a request the overloaded engine downgraded to the
	// cheap fallback solver; RequestedAlgo preserves the original ask.
	// Both are immutable after Submit.
	Degraded      bool
	RequestedAlgo string

	engine *Engine
	done   chan struct{}

	// deadline is the absolute per-request deadline, fixed at admission
	// (queuedAt + Params.Timeout); immutable after Submit.
	deadline time.Time

	// leader, for a coalesced request, is the in-flight twin whose outcome
	// this request shares; followers (guarded by engine.mu, not r.mu) are
	// the coalesced requests riding on this one. leader is immutable after
	// Submit.
	leader    *Request
	followers []*Request

	mu   sync.Mutex
	snap Snapshot
	// interest counts attached waiters that may still cancel: the submitter
	// plus one per coalesced follower. When every sync waiter abandons
	// (client disconnect) it reaches zero and the solve is cancelled.
	interest    int
	abandoned   bool
	cancelSolve context.CancelFunc
	events      []mwvc.Event
	subs        []chan mwvc.Event
}

// Wait blocks until the request finishes or ctx is done. A ctx error
// abandons the wait, not the solve: the request keeps running and its
// result still lands in the cache — unless the caller also signals real
// client disconnection via Abandon.
func (r *Request) Wait(ctx context.Context) error {
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Abandon withdraws one waiter's interest in the request — the HTTP layer
// calls it when a synchronous client disconnects mid-solve. When the last
// interested waiter abandons (coalesced followers each hold interest in
// their leader), the solve's context is cancelled so the worker slot stops
// burning on a request nobody will read; an abandoned request still queued
// is failed at dequeue without running. Asynchronous submitters never call
// Abandon, so fire-and-poll requests keep running and caching as before.
func (r *Request) Abandon() {
	t := r
	if r.leader != nil {
		t = r.leader
	}
	t.mu.Lock()
	if t.snap.Status.settled() {
		t.mu.Unlock()
		return
	}
	t.interest--
	var cancel context.CancelFunc
	if t.interest <= 0 {
		t.abandoned = true
		cancel = t.cancelSolve
	}
	t.mu.Unlock()
	if cancel != nil {
		t.engine.met.abandoned.Add(1)
		cancel()
	}
}

// Snapshot is a request's mutable state. The request keeps its state as
// one Snapshot, guarded by its lock, and Request.Snapshot returns a copy:
// that is the one way to read the state, so no reader sees a request half
// finished (status "running" with a solution attached).
type Snapshot struct {
	Status Status
	// Cached marks a request answered from the solution cache at admission,
	// without running the solver. Coalesced marks a follower of an
	// identical in-flight request (same cache key), which shares its
	// outcome instead of occupying a queue slot of its own.
	Cached    bool
	Coalesced bool
	// Sol and Err are the outcome, both nil while queued or running. ErrMsg
	// is the user-facing failure text: the "deadline exceeded after N
	// rounds" form cmd/mwvc -timeout shares (internal/cli) for a deadline
	// error, the raw error otherwise, "" on success.
	Sol    *mwvc.Solution
	Err    error
	ErrMsg string
	// Rounds counts the communication rounds observed so far: live while
	// running, final after completion (a cached solution's own count).
	Rounds int
	// CoverSize is the finished cover's cardinality, 0 while unfinished.
	CoverSize int
	// TraceDropped counts observer events discarded beyond maxTraceEvents;
	// nonzero means a replayed trace is truncated.
	TraceDropped int
	QueuedAt     time.Time
	StartedAt    time.Time
	DoneAt       time.Time
}

// Snapshot returns a copy of the request's state, taken under its lock.
func (r *Request) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snap
}

func coverSize(sol *mwvc.Solution) int {
	n := 0
	for _, in := range sol.Cover {
		if in {
			n++
		}
	}
	return n
}

// Times returns when the request was queued, started and finished (zero
// values for stages not reached).
func (r *Request) Times() (queued, started, done time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snap.QueuedAt, r.snap.StartedAt, r.snap.DoneAt
}

// Subscribe returns the trace so far plus a live channel of subsequent
// events; the channel is closed when the request finishes (immediately for
// an already-finished request). A coalesced follower subscribes to its
// leader, whose solve is the one it shares. Slow subscribers do not block
// the solve: events beyond the channel's buffer are dropped. Call the
// returned cancel function when done reading.
func (r *Request) Subscribe(buffer int) (past []mwvc.Event, live <-chan mwvc.Event, cancel func()) {
	if r.leader != nil {
		return r.leader.Subscribe(buffer)
	}
	if buffer <= 0 {
		buffer = 256
	}
	ch := make(chan mwvc.Event, buffer)
	r.mu.Lock()
	past = append([]mwvc.Event(nil), r.events...)
	if r.snap.Status.settled() {
		close(ch)
	} else {
		r.subs = append(r.subs, ch)
	}
	r.mu.Unlock()
	return past, ch, func() { r.unsubscribe(ch) }
}

func (r *Request) unsubscribe(ch chan mwvc.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.subs {
		if s == ch {
			r.subs = append(r.subs[:i], r.subs[i+1:]...)
			return
		}
	}
}

// observe is the request's Observer: it feeds the trace buffer, the live
// subscribers and the engine's aggregate metrics. It runs synchronously on
// the solving worker's goroutine.
func (r *Request) observe(e mwvc.Event) {
	if err := fault.Hit(fault.SolverStep); err != nil {
		// The observer has no error channel; an injected step fault surfaces
		// as a panic, deliberately exercising the per-solve panic guard.
		panic(fmt.Sprintf("fault: solver step: %v", err))
	}
	r.mu.Lock()
	if e.Kind == mwvc.KindRound {
		r.snap.Rounds = e.Round
	}
	if len(r.events) < maxTraceEvents {
		r.events = append(r.events, e)
	} else {
		r.snap.TraceDropped++
	}
	for _, ch := range r.subs {
		select {
		case ch <- e:
		default: // slow subscriber: drop rather than stall the solve
		}
	}
	r.mu.Unlock()
	r.engine.met.eventsTotal.Add(1)
	if e.Kind == mwvc.KindRound {
		r.engine.met.roundsTotal.Add(1)
	}
}

// settle records the outcome and detaches the subscribers, and returns the
// release step that closes their channels and done, waking every waiter. The
// engine counts the request between the two steps, so a waiter that returns
// from Wait sees it in the counters. running reports that the request was in
// the in-flight gauge. The first call wins; later calls (a worker's panic
// guard firing after a normal completion path, a racing Close) return a nil
// release. The cover cardinality is computed once here, not on every status
// poll.
func (r *Request) settle(sol *mwvc.Solution, err error, errMsg string) (release func(), running bool) {
	r.mu.Lock()
	s := &r.snap
	if s.Status.settled() {
		r.mu.Unlock()
		return nil, false
	}
	running = s.Status == StatusRunning
	s.Sol, s.Err, s.ErrMsg = sol, err, errMsg
	if err == nil {
		s.Status = StatusDone
		if sol != nil && sol.Rounds > 0 {
			s.Rounds = sol.Rounds
		}
	} else {
		s.Status = StatusFailed
	}
	if sol != nil {
		s.CoverSize = coverSize(sol)
	}
	s.DoneAt = time.Now()
	if s.StartedAt.IsZero() {
		s.StartedAt = s.DoneAt // never ran (drain, coalesced, abandoned)
	}
	subs := r.subs
	r.subs = nil
	r.mu.Unlock()
	return func() {
		for _, ch := range subs {
			close(ch)
		}
		close(r.done)
	}, running
}

// Engine runs solves. Create with NewEngine, stop with Close.
type Engine struct {
	cfg         Config
	store       *GraphStore
	queue       chan *Request
	stop        chan struct{}
	wg          sync.WaitGroup
	degradeAt   int    // queue length at which degradation engages
	degradeAlgo string // the solver a degraded request runs

	mu       sync.Mutex
	closed   bool
	draining bool
	requests map[string]*Request
	finished []string // completed request ids, oldest first (retention ring)
	cache    map[SolveParams]*mwvc.Solution
	cacheSeq []SolveParams            // cache keys, oldest first (eviction ring)
	inflight map[SolveParams]*Request // enqueued/running leaders, for coalescing
	nextID   uint64

	met engineMetrics
}

// NewEngine builds the engine and starts its worker pool. With
// Config.DataDir set it opens the durable graph store, running the startup
// recovery scan before any request is admitted. An unusable data directory
// is an error, and so is Config.DegradeEnabled with no fast-tier solver
// registered.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	var degradeAlgo string
	if cfg.DegradeEnabled {
		fast := solver.ByTier(solver.TierFast)
		if len(fast) == 0 {
			return nil, errors.New("serve: degradation needs a fast-tier solver, and none is registered")
		}
		degradeAlgo = fast[0].Name
	}
	var store *GraphStore
	if cfg.DataDir != "" {
		var err error
		if store, err = OpenGraphStore(cfg.DataDir, cfg.MaxGraphs); err != nil {
			return nil, err
		}
	} else {
		store = NewGraphStore(cfg.MaxGraphs)
	}
	e := &Engine{
		cfg:         cfg,
		store:       store,
		queue:       make(chan *Request, cfg.QueueDepth),
		stop:        make(chan struct{}),
		requests:    make(map[string]*Request),
		cache:       make(map[SolveParams]*mwvc.Solution),
		inflight:    make(map[SolveParams]*Request),
		degradeAt:   max(1, 3*cfg.QueueDepth/4),
		degradeAlgo: degradeAlgo,
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e, nil
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Graphs returns the engine's graph store.
func (e *Engine) Graphs() *GraphStore { return e.store }

// StartDrain flips the engine into drain mode ahead of shutdown: new
// Submits fail with ErrDraining (HTTP 503 + Retry-After) and /healthz goes
// unhealthy so load balancers stop routing here, while queued and in-flight
// solves keep running to completion. Close implies StartDrain.
func (e *Engine) StartDrain() {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()
}

// Draining reports whether the engine is refusing new work (drain or close).
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining || e.closed
}

// Close stops the workers, fails every still-queued request with ErrClosed
// and waits for in-flight solves to finish. Subsequent Submits fail with
// ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.draining = true
	e.mu.Unlock()
	close(e.stop)
	e.wg.Wait()
	for {
		select {
		case req := <-e.queue:
			e.complete(req, nil, ErrClosed, ErrClosed.Error())
		default:
			return
		}
	}
}

// Lookup returns a live or retained request by id.
func (e *Engine) Lookup(id string) (*Request, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.requests[id]
	return r, ok
}

// Submit admits one solve request. It validates the algorithm and graph,
// answers from the solution cache when the same normalized params, the
// deadline aside, have already been solved, coalesces onto an identical
// in-flight request (N concurrent duplicates share one solver execution),
// and otherwise enqueues — degrading eligible requests to the cheap
// fallback solver first when the queue is past the overload threshold. It
// never blocks: a full queue returns ErrQueueFull immediately — that is the
// backpressure signal (HTTP 429 + Retry-After).
func (e *Engine) Submit(p SolveParams) (*Request, error) {
	if p.Epsilon == 0 {
		p.Epsilon = 0.1 // the facade default; normalized so cache keys agree
	}
	if p.Algorithm == "" {
		p.Algorithm = string(mwvc.AlgoMPC)
	}
	if _, ok := solver.Lookup(p.Algorithm); !ok {
		return nil, fmt.Errorf("serve: unknown algorithm %q", p.Algorithm)
	}
	if _, ok := e.store.Get(p.GraphHash); !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownGraph, p.GraphHash)
	}
	if p.Timeout <= 0 {
		p.Timeout = e.cfg.DefaultTimeout
	}
	if p.Timeout > e.cfg.MaxTimeout {
		p.Timeout = e.cfg.MaxTimeout
	}
	if p.ImproveBudgetMS < 0 {
		p.ImproveBudgetMS = 0 // normalized so cache keys agree
	}
	if lim := e.cfg.MaxTimeout.Milliseconds(); p.ImproveBudgetMS > lim {
		p.ImproveBudgetMS = lim
	}
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if e.draining {
		return nil, ErrDraining
	}
	e.met.requestsTotal.Add(1)
	e.nextID++
	req := &Request{
		ID:       fmt.Sprintf("s-%06d", e.nextID),
		Params:   p,
		engine:   e,
		done:     make(chan struct{}),
		deadline: now.Add(p.Timeout),
		snap:     Snapshot{Status: StatusQueued, QueuedAt: now},
		interest: 1,
	}
	if sol, ok := e.cache[keyOf(p)]; ok {
		// Cache hit: the request completes without ever entering the queue.
		e.completeCacheHitLocked(req, sol, now)
		return req, nil
	}
	// Overload degradation: with the queue past the threshold, downgrade
	// the request to the cheap fallback before considering rejection. The
	// degraded tuple gets its own cache and coalescing checks — under
	// sustained identical load the fallback answer is usually already there.
	if e.cfg.DegradeEnabled && p.Algorithm != e.degradeAlgo && len(e.queue) >= e.degradeAt {
		req.Degraded = true
		req.RequestedAlgo = p.Algorithm
		p.Algorithm = e.degradeAlgo
		if p.ImproveBudgetMS > degradedImproveBudgetMS {
			p.ImproveBudgetMS = degradedImproveBudgetMS
		}
		req.Params = p
		e.met.degraded.Add(1)
		if sol, ok := e.cache[keyOf(p)]; ok {
			e.completeCacheHitLocked(req, sol, now)
			return req, nil
		}
	}
	// Admission coalescing: an identical tuple already enqueued or solving
	// makes this request a follower sharing the leader's outcome — no queue
	// slot, no duplicate solver execution.
	if leader, ok := e.inflight[keyOf(p)]; ok {
		req.leader = leader
		req.snap.Coalesced = true
		leader.followers = append(leader.followers, req)
		leader.mu.Lock()
		leader.interest++
		leader.mu.Unlock()
		e.met.coalesced.Add(1)
		e.requests[req.ID] = req
		return req, nil
	}
	select {
	case e.queue <- req:
		e.inflight[keyOf(p)] = req
	default:
		e.met.rejected.Add(1)
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, e.cfg.QueueDepth)
	}
	e.requests[req.ID] = req
	return req, nil
}

// completeCacheHitLocked finishes a request from the solution cache at
// admission time. Caller holds e.mu.
func (e *Engine) completeCacheHitLocked(req *Request, sol *mwvc.Solution, now time.Time) {
	req.snap = Snapshot{Status: StatusDone, Cached: true, Sol: sol, Rounds: sol.Rounds,
		CoverSize: coverSize(sol), QueuedAt: now, StartedAt: now, DoneAt: now}
	e.met.cacheHits.Add(1)
	e.met.done.Add(1)
	e.requests[req.ID] = req
	e.retainLocked(req.ID)
	close(req.done)
}

// retainLocked records a finished request id and evicts beyond the retention
// cap. Caller holds e.mu.
func (e *Engine) retainLocked(id string) {
	e.finished = append(e.finished, id)
	for len(e.finished) > retainRequests {
		delete(e.requests, e.finished[0])
		e.finished = e.finished[1:]
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		// Prioritized stop check: when Close has fired, exit instead of
		// racing it for queued requests — Close drains and fails those with
		// ErrClosed. Without the priority, a select with both channels ready
		// picks randomly and shutdown would solve half the backlog.
		select {
		case <-e.stop:
			return
		default:
		}
		select {
		case <-e.stop:
			return
		case req := <-e.queue:
			e.dispatch(req)
		}
	}
}

// dispatch runs one dequeued request behind the worker's panic guard: a
// panic anywhere in the request path (store access, trace fan-out, the
// solver itself past its own guard) fails that one request with a typed
// retryable error instead of killing the worker goroutine and silently
// shrinking the pool.
func (e *Engine) dispatch(req *Request) {
	defer func() {
		if v := recover(); v != nil {
			e.met.panics.Add(1)
			e.complete(req, nil, fmt.Errorf("%w: panic in request path: %v", ErrRetryable, v),
				fmt.Sprintf("transient failure (recovered panic: %v); retry", v))
		}
	}()
	if err := fault.Hit(fault.WorkerDequeue); err != nil {
		e.complete(req, nil, fmt.Errorf("%w: %v", ErrRetryable, err),
			"transient failure at dequeue; retry")
		return
	}
	e.run(req)
}

// complete finalizes a request — and every coalesced follower riding on it
// — with one outcome, updating metrics, the in-flight index and the
// retention ring. Every request is settled and counted before any of them
// is released, so whoever returns from Wait reads metrics that include it.
// It is idempotent per request (settle's first-call-wins contract), so the
// dispatch panic guard can call it unconditionally.
func (e *Engine) complete(req *Request, sol *mwvc.Solution, err error, errMsg string) {
	release, running := req.settle(sol, err, errMsg)
	if release == nil {
		return
	}
	if running {
		e.met.inFlight.Add(-1)
	}
	e.countOutcome(err)
	e.mu.Lock()
	key := keyOf(req.Params)
	if cur, ok := e.inflight[key]; ok && cur == req {
		delete(e.inflight, key)
	}
	followers := req.followers
	req.followers = nil
	e.retainLocked(req.ID)
	for _, f := range followers {
		e.retainLocked(f.ID)
	}
	e.mu.Unlock()
	releases := []func(){release}
	for _, f := range followers {
		if r, _ := f.settle(sol, err, errMsg); r != nil {
			e.countOutcome(err)
			releases = append(releases, r)
		}
	}
	for _, r := range releases {
		r()
	}
}

// countOutcome counts one finished request as done or failed.
func (e *Engine) countOutcome(err error) {
	if err == nil {
		e.met.done.Add(1)
	} else {
		e.met.failed.Add(1)
	}
}

// keyOf returns the solution-cache and coalescing key of the normalized
// params p: p without its deadline, which a cached solution satisfies.
func keyOf(p SolveParams) SolveParams {
	p.Timeout = 0
	return p
}

// run executes one dequeued request end to end: deadline context, observed
// solve through the facade, outcome classification, cache fill. It does not
// look the cache up again: Submit checks the cache, coalesces and enqueues
// under one hold of e.mu, so a queued request is the only leader of its key,
// and only its own run writes that key's cache entry.
func (e *Engine) run(req *Request) {
	req.mu.Lock()
	if req.abandoned {
		// Every attached client disconnected while the request waited; do
		// not burn a solver execution on a result nobody will read.
		req.mu.Unlock()
		e.met.abandoned.Add(1)
		e.complete(req, nil, context.Canceled, "abandoned: client disconnected while queued")
		return
	}
	req.snap.Status = StatusRunning
	req.snap.StartedAt = time.Now()
	e.met.inFlight.Add(1) // complete takes it out before it releases the waiters
	req.mu.Unlock()

	// The deadline was fixed at admission; a request that exhausted it in
	// the queue fails here without wasting a solver execution on it.
	ctx, cancel := context.WithDeadline(context.Background(), req.deadline)
	defer cancel()
	// Expose the cancel to Abandon so a client disconnect mid-solve frees
	// the worker; re-check abandonment in case it raced the handoff.
	req.mu.Lock()
	req.cancelSolve = cancel
	abandoned := req.abandoned
	req.mu.Unlock()
	if abandoned {
		cancel()
	}
	if err := ctx.Err(); err != nil {
		msg, _ := cli.DeadlineMessage(err, 0)
		e.complete(req, nil, err, msg)
		return
	}
	p := req.Params
	sg, ok := e.store.Get(p.GraphHash)
	if !ok { // validated at Submit; the store never evicts, so unreachable
		e.complete(req, nil, ErrUnknownGraph, ErrUnknownGraph.Error())
		return
	}
	opts := []mwvc.Option{
		mwvc.WithAlgorithm(mwvc.Algorithm(p.Algorithm)),
		mwvc.WithEpsilon(p.Epsilon),
		mwvc.WithSeed(p.Seed),
		mwvc.WithParallelism(e.cfg.SolverParallelism),
		mwvc.WithObserver(mwvc.ObserverFunc(req.observe)),
	}
	if p.PaperConstants {
		opts = append(opts, mwvc.WithPaperConstants())
	}
	if p.NoReduce {
		opts = append(opts, mwvc.WithoutReduction())
	} else {
		opts = append(opts, mwvc.WithKernel(&sg.kernel))
	}
	if p.ImproveBudgetMS > 0 {
		opts = append(opts, mwvc.WithImprovement(time.Duration(p.ImproveBudgetMS)*time.Millisecond))
	}
	start := time.Now()
	sol, err := e.solveGuarded(ctx, sg, opts)
	elapsed := time.Since(start)
	req.mu.Lock()
	req.cancelSolve = nil
	req.mu.Unlock()
	// Solver-execution accounting covers failures too: a deadline-bound
	// overload burns full worker time per request, and metrics that only
	// count successes would show an idle solver during the incident.
	e.met.solveCount.Add(1)
	e.met.solveNanos.Add(int64(elapsed))
	e.met.algoCount(p.Algorithm)
	if err == nil && sol.Reduction != nil {
		r := sol.Reduction
		e.met.reduceCount.Add(1)
		if r.ReduceNS == 0 { // the stored graph's kernel stood in for the reduction
			e.met.reduceReused.Add(1)
		}
		e.met.reduceNanos.Add(r.ReduceNS)
		e.met.reduceVerticesRemoved.Add(int64(r.OriginalVertices - r.KernelVertices))
		e.met.reduceEdgesRemoved.Add(int64(r.OriginalEdges - r.KernelEdges))
	}
	if err == nil && sol.Improvement != nil {
		imp := sol.Improvement
		e.met.improveCount.Add(1)
		e.met.improveNanos.Add(imp.ImproveNS)
		e.met.improveSteps.Add(int64(imp.Steps))
		e.met.improveWeightRemoved.Add(imp.WeightBefore - imp.WeightAfter)
	}

	if err != nil {
		msg := err.Error()
		if m, ok := cli.DeadlineMessage(err, req.Snapshot().Rounds); ok {
			msg = m
		}
		e.complete(req, nil, err, msg)
		return
	}
	key := keyOf(p)
	e.mu.Lock()
	if _, exists := e.cache[key]; !exists {
		// Evict the key inserted first: which tuples stay warm follows the
		// order their solves finished in, never map iteration order.
		e.cacheSeq = append(e.cacheSeq, key)
		if len(e.cacheSeq) > maxCacheEntries {
			delete(e.cache, e.cacheSeq[0])
			e.cacheSeq = e.cacheSeq[1:]
		}
	}
	e.cache[key] = sol
	e.mu.Unlock()
	e.complete(req, sol, nil, "")
}

// solveGuarded runs mwvc.Solve behind its own recover guard, so a panic in
// solver code (including an injected SolverStep panic surfacing through the
// observer) fails the one request with a typed retryable error instead of
// unwinding into the worker loop.
func (e *Engine) solveGuarded(ctx context.Context, sg *StoredGraph, opts []mwvc.Option) (sol *mwvc.Solution, err error) {
	defer func() {
		if v := recover(); v != nil {
			e.met.panics.Add(1)
			sol = nil
			err = fmt.Errorf("%w: solver panic: %v", ErrRetryable, v)
		}
	}()
	return mwvc.Solve(ctx, sg.Graph, opts...)
}

// engineMetrics is the engine's aggregate instrumentation, fed by the
// request lifecycle and by the observer stream of every solve;
// writeMetrics (metrics.go) renders it as GET /metrics.
type engineMetrics struct {
	// Request lifecycle: Submit calls, admitted or rejected; backpressure
	// rejections; cache hits at admission; requests finished done (cache
	// hits included) or failed (deadline, solver error, shutdown); and the
	// solves executing now (a gauge).
	requestsTotal atomic.Int64
	rejected      atomic.Int64
	cacheHits     atomic.Int64
	done          atomic.Int64
	failed        atomic.Int64
	inFlight      atomic.Int64
	// Observer stream across all solves: KindRound events and all events.
	roundsTotal atomic.Int64
	eventsTotal atomic.Int64
	// Solver executions and their wall-clock time, failed ones included (a
	// deadline-bound failure still burns worker time); cache hits excluded.
	solveCount atomic.Int64
	solveNanos atomic.Int64

	// Robustness accounting: overload degradations, coalesced duplicate
	// admissions, abandoned (client-disconnected) requests and recovered
	// panics in the request path.
	degraded  atomic.Int64
	coalesced atomic.Int64
	abandoned atomic.Int64
	panics    atomic.Int64

	// Kernelization accounting across *successful* solver executions that
	// ran the reduction stage. Failed solves are excluded by necessity, not
	// by choice: the stats travel on the Solution, which an errored
	// mwvc.Solve does not return. Cache hits re-run nothing and are
	// likewise excluded. reduceReused counts the solves among them that
	// took their stored graph's kernel, which add 0 to reduceNanos.
	reduceCount           atomic.Int64
	reduceReused          atomic.Int64
	reduceNanos           atomic.Int64
	reduceVerticesRemoved atomic.Int64
	reduceEdgesRemoved    atomic.Int64

	// Anytime-improvement accounting across successful solver executions
	// that ran the stage (same exclusions as the reduce counters; exact
	// solves skip the stage).
	improveCount         atomic.Int64
	improveNanos         atomic.Int64
	improveSteps         atomic.Int64
	improveWeightRemoved atomicFloat64

	// perAlgo counts solver executions by algorithm, as solveCount does.
	algoMu  sync.Mutex
	perAlgo map[string]int64
}

// atomicFloat64 accumulates a float64 sum via compare-and-swap on the bit
// pattern; the cover weight removed per solve is not an integer, and
// Prometheus counters are float-valued anyway.
type atomicFloat64 struct{ bits atomic.Uint64 }

// Add accumulates v into the sum.
func (a *atomicFloat64) Add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Load returns the current sum.
func (a *atomicFloat64) Load() float64 { return math.Float64frombits(a.bits.Load()) }

func (m *engineMetrics) algoCount(algo string) {
	m.algoMu.Lock()
	if m.perAlgo == nil {
		m.perAlgo = make(map[string]int64)
	}
	m.perAlgo[algo]++
	m.algoMu.Unlock()
}
