package mpc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Config describes a cluster.
type Config struct {
	// Machines is M, the number of machines (≥ 1).
	Machines int
	// MemoryWords is S, the per-machine memory budget in 8-byte words.
	MemoryWords int64
	// PairWords, when positive, switches on congested-clique accounting:
	// at most PairWords words per ordered machine pair per round.
	PairWords int64
	// Parallelism bounds the number of concurrently executing machines.
	// 0 means GOMAXPROCS.
	Parallelism int
}

// Metrics aggregates the quantities the model's analysis is about.
type Metrics struct {
	// Rounds is the number of communication rounds elapsed, including
	// rounds accounted via AccountRounds.
	Rounds int
	// MaxResidentWords is the high-water mark of any machine's memory.
	MaxResidentWords int64
	// MaxSentWords / MaxRecvWords are the per-round per-machine maxima.
	MaxSentWords int64
	MaxRecvWords int64
	// TotalWords / TotalMessages count all routed traffic.
	TotalWords    int64
	TotalMessages int64
}

// Message is a routed unit of communication. Data is counted word-for-word
// against the sender's and receiver's budgets. Messages obtained from
// Machine.Inbox alias cluster-internal arenas: they are valid only until the
// next Round and must not be modified or retained.
type Message struct {
	From, To int
	Data     []uint64
}

// outEnv is a staged outgoing message: `n` words at `off` in the sender's
// outgoing arena, addressed to machine `to`.
type outEnv struct {
	to  int32
	off int64
	n   int64
}

// copyTask is one inbox-assembly work item produced by the counting sort:
// copy `n` words from machine `from`'s outgoing arena at srcOff into the
// destination's inbox arena at dstOff. Tasks are grouped contiguously by
// destination so each destination is assembled by exactly one worker.
type copyTask struct {
	srcOff int64
	dstOff int64
	n      int64
	from   int32
}

// Machine is the per-machine handle visible to a StepFunc. Its methods must
// only be called from within the step executing on this machine.
type Machine struct {
	id      int
	cluster *Cluster
	// inbox/inArena hold this round's delivered messages; both are recycled
	// across rounds (inbox Data fields alias inArena).
	inbox   []Message
	inArena []uint64
	// outEnv/outArena stage this round's sends, recycled across rounds.
	outEnv   []outEnv
	outArena []uint64
	sent     int64
	resident int64
	// maxResident is this machine's lifetime high-water mark. It is only
	// written by the machine's own step (no lock needed) and merged into
	// Metrics.MaxResidentWords at the round barrier.
	maxResident int64
}

// ID returns the machine's index in [0, M).
func (m *Machine) ID() int { return m.id }

// Inbox returns a view of the messages delivered at the start of this round,
// ordered by (sender, send order) — a deterministic order regardless of
// scheduling. The view and the Data slices of its messages alias recycled
// arenas: they are invalidated by the next Round and must not be retained
// or modified.
func (m *Machine) Inbox() []Message { return m.inbox }

// Send stages a message of len(data) words to machine `to`. The data is
// copied into the machine's outgoing arena, so the caller may reuse the
// slice immediately after Send returns.
func (m *Machine) Send(to int, data []uint64) error {
	if to < 0 || to >= m.cluster.cfg.Machines {
		return fmt.Errorf("mpc: machine %d sending to invalid machine %d", m.id, to)
	}
	off := int64(len(m.outArena))
	m.outArena = append(m.outArena, data...)
	m.outEnv = append(m.outEnv, outEnv{to: int32(to), off: off, n: int64(len(data))})
	m.sent += int64(len(data))
	return nil
}

// Reserve pre-grows the machine's outgoing arena so that at least `words`
// further words can be staged without reallocation. After a Reserve, slices
// returned by Alloc stay valid for the rest of the round as long as the
// total staged volume stays within the reservation. Reserve itself does not
// stage anything and does not count against the send budget.
func (m *Machine) Reserve(words int64) {
	need := int64(len(m.outArena)) + words
	if int64(cap(m.outArena)) >= need {
		return
	}
	newCap := 2 * int64(cap(m.outArena))
	if newCap < need {
		newCap = need
	}
	na := make([]uint64, len(m.outArena), newCap)
	copy(na, m.outArena)
	m.outArena = na
}

// Alloc stages an outgoing message of exactly n zeroed words to machine `to`
// and returns the arena-backed buffer for the caller to fill in place before
// the step returns — the zero-copy alternative to Send. Growing the arena
// may move it, which invalidates buffers returned by earlier Alloc calls in
// the same round; callers staging several messages should Reserve the total
// volume first (after which Alloc never reallocates within the round).
func (m *Machine) Alloc(to int, n int) ([]uint64, error) {
	if to < 0 || to >= m.cluster.cfg.Machines {
		return nil, fmt.Errorf("mpc: machine %d sending to invalid machine %d", m.id, to)
	}
	if n < 0 {
		return nil, fmt.Errorf("mpc: machine %d staging negative message size %d", m.id, n)
	}
	m.Reserve(int64(n))
	off := int64(len(m.outArena))
	need := off + int64(n)
	m.outArena = m.outArena[:need]
	buf := m.outArena[off:need:need]
	for i := range buf {
		buf[i] = 0
	}
	m.outEnv = append(m.outEnv, outEnv{to: int32(to), off: off, n: int64(n)})
	m.sent += int64(n)
	return buf, nil
}

// Charge registers words of resident memory on this machine (e.g. when it
// materializes an induced subgraph). It errors immediately when the budget
// is exceeded, mirroring an out-of-memory machine. The cluster-wide
// high-water mark is maintained without locking: each machine tracks its own
// maximum, merged into Metrics at the round barrier.
func (m *Machine) Charge(words int64) error {
	m.resident += words
	if m.resident > m.cluster.cfg.MemoryWords {
		return fmt.Errorf("mpc: machine %d resident %d words exceeds budget %d",
			m.id, m.resident, m.cluster.cfg.MemoryWords)
	}
	if m.resident > m.maxResident {
		m.maxResident = m.resident
	}
	return nil
}

// Resident returns the machine's current resident words.
func (m *Machine) Resident() int64 { return m.resident }

// StepFunc is one machine's work within a round.
type StepFunc func(m *Machine) error

const (
	jobStep = iota
	jobRoute
)

// job is one unit of work handed to the persistent worker pool: either
// "execute the step on machine idx" or "assemble the inboxes of destination
// chunk idx". Jobs are plain values; dispatching them allocates nothing.
type job struct {
	c    *Cluster
	idx  int32
	kind int8
}

// worker is the body of a pool goroutine. It deliberately references only
// the job channel — never the cluster — so an abandoned cluster becomes
// unreachable, its finalizer closes the channel, and the pool exits.
func worker(jobs <-chan job) {
	for j := range jobs {
		runJob(j)
	}
}

// errStepAborted marks a step that never returned: it exited via panic or
// runtime.Goexit (testing.T.Fatalf inside a step). The slot is pre-filled
// with it and overwritten on normal return, so an aborted step surfaces as
// a failed round — not as a silent success whose partial messages route.
var errStepAborted = errors.New("mpc: step aborted before returning (runtime.Goexit or panic)")

// runJob executes one job with cleanup deferred, so a step that exits via
// panic or runtime.Goexit still unblocks the Round instead of deadlocking
// it: the barrier is always released, and the abnormal exit both reports
// errStepAborted for the machine and spawns a replacement worker (Goexit
// kills the current pool goroutine; without a replacement the next Round
// would enqueue jobs nothing drains).
func runJob(j job) {
	completed := false
	defer func() {
		if !completed {
			go worker(j.c.jobs)
		}
		j.c.wg.Done()
	}()
	switch j.kind {
	case jobStep:
		c := j.c
		c.stepErrs[j.idx] = errStepAborted
		err := c.curStep(c.machines[j.idx])
		c.stepErrs[j.idx] = err
	case jobRoute:
		j.c.routeChunk(int(j.idx))
	}
	completed = true
}

// poolCloser owns the worker pool's job channel. It is deliberately a
// separate object outside the Cluster↔Machine reference cycle: finalizers
// on cycle members are not guaranteed to run, but nothing points from the
// closer back to the cluster, so when an un-Closed cluster becomes
// unreachable the closer does too and its finalizer shuts the pool down.
type poolCloser struct {
	jobs chan job
	once sync.Once
}

func (p *poolCloser) close() {
	p.once.Do(func() {
		runtime.SetFinalizer(p, nil)
		close(p.jobs)
	})
}

// Cluster is a simulated MPC cluster.
type Cluster struct {
	cfg      Config
	machines []*Machine
	metrics  Metrics

	// Worker pool (persistent; see Close).
	jobs     chan job
	pool     *poolCloser
	workers  int
	wg       sync.WaitGroup
	curStep  StepFunc
	stepErrs []error

	// Routing scratch, allocated once and recycled every round.
	recvW    []int64    // words inbound per destination this round
	msgCnt   []int32    // messages inbound per destination this round
	taskOff  []int32    // per-destination start offset into tasks (len M+1)
	taskCur  []int32    // fill cursor per destination
	wordCur  []int64    // inbox-arena word cursor per destination
	tasks    []copyTask // flat task list, grouped by destination
	chunkLen int        // destinations per routing chunk this round

	// Congested-clique pair accounting: epoch-stamped per-destination
	// scratch, reset in O(1) per sender by bumping the epoch.
	pairW     []int64
	pairStamp []int64
	pairEpoch int64
}

// NewCluster validates the configuration and builds the cluster. The cluster
// owns a pool of Parallelism worker goroutines; call Close when done with it
// (a finalizer reclaims the pool of abandoned clusters as a safety net).
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("mpc: need at least 1 machine, got %d", cfg.Machines)
	}
	if cfg.MemoryWords < 1 {
		return nil, fmt.Errorf("mpc: per-machine memory %d words, want >= 1", cfg.MemoryWords)
	}
	if cfg.PairWords < 0 {
		return nil, fmt.Errorf("mpc: negative PairWords %d", cfg.PairWords)
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.Parallelism < 1 {
		return nil, fmt.Errorf("mpc: parallelism %d, want >= 1", cfg.Parallelism)
	}
	m := cfg.Machines
	c := &Cluster{
		cfg:      cfg,
		stepErrs: make([]error, m),
		recvW:    make([]int64, m),
		msgCnt:   make([]int32, m),
		taskOff:  make([]int32, m+1),
		taskCur:  make([]int32, m),
		wordCur:  make([]int64, m),
	}
	if cfg.PairWords > 0 {
		c.pairW = make([]int64, m)
		c.pairStamp = make([]int64, m)
	}
	c.machines = make([]*Machine, m)
	for i := range c.machines {
		c.machines[i] = &Machine{id: i, cluster: c}
	}
	c.workers = cfg.Parallelism
	if c.workers > m {
		c.workers = m
	}
	c.jobs = make(chan job, c.workers)
	for i := 0; i < c.workers; i++ {
		go worker(c.jobs)
	}
	c.pool = &poolCloser{jobs: c.jobs}
	runtime.SetFinalizer(c.pool, (*poolCloser).close)
	return c, nil
}

// Close releases the cluster's worker pool. It is idempotent and safe to
// call at any point after the last Round; calling Round after Close panics.
func (c *Cluster) Close() {
	c.pool.close()
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Metrics returns a snapshot of the accumulated metrics.
func (c *Cluster) Metrics() Metrics { return c.metrics }

// Machines returns M.
func (c *Cluster) Machines() int { return c.cfg.Machines }

// Round executes step concurrently on every machine, then routes the staged
// messages, enforcing the send, receive and (in congested-clique mode)
// per-pair budgets. Messages become visible in inboxes at the start of the
// next round. Any machine error aborts the round with a combined error.
//
// After the first few rounds of a fixed workload Round reaches steady state
// and performs no heap allocations: arenas, envelope tables and routing
// scratch are all recycled.
func (c *Cluster) Round(step StepFunc) error {
	c.curStep = step
	c.wg.Add(len(c.machines))
	for i := range c.machines {
		c.jobs <- job{c: c, idx: int32(i), kind: jobStep}
	}
	c.wg.Wait()
	c.curStep = nil
	if err := errors.Join(c.stepErrs...); err != nil {
		for i := range c.stepErrs {
			c.stepErrs[i] = nil
		}
		// The round failed before the barrier, but resident-memory peaks
		// reached during the failing steps still belong in the metrics
		// (they are exactly what a memory experiment wants to see).
		c.mergeResidentPeaks()
		// Messages staged by the aborted round must not survive it: without
		// this, the next Round would route them as if they had been sent by
		// its own step, delivering stale envelopes from the failed round.
		c.clearStaged()
		return err
	}
	return c.route()
}

// clearOutgoing drops every machine's staged outgoing messages — envelope
// tables, arena cursors and the per-round sent counter. route() calls it
// after a successful delivery; the arenas keep their capacity.
func (c *Cluster) clearOutgoing() {
	for _, m := range c.machines {
		m.outEnv = m.outEnv[:0]
		m.outArena = m.outArena[:0]
		m.sent = 0
	}
}

// clearStaged cleans up after a failed round (step error or budget
// violation): staged outgoing messages must not survive it — the next Round
// would deliver stale envelopes from the aborted round — and inboxes are
// emptied too, because a route() that fails mid-pass has already resized
// some destinations' inbox views for counts it never delivered. All arenas
// keep their capacity; only the cursors reset.
func (c *Cluster) clearStaged() {
	c.clearOutgoing()
	for _, m := range c.machines {
		m.inbox = m.inbox[:0]
		m.inArena = m.inArena[:0]
	}
}

// mergeResidentPeaks folds each machine's lock-free high-water mark into the
// cluster metric.
func (c *Cluster) mergeResidentPeaks() {
	for _, m := range c.machines {
		if m.maxResident > c.metrics.MaxResidentWords {
			c.metrics.MaxResidentWords = m.maxResident
		}
	}
}

// route is the round barrier: it enforces the send/receive/pair budgets,
// merges per-machine metrics, and delivers every staged message in
// deterministic (sender, send-order) order via a counting sort over senders.
// The word copies — the O(total traffic) part — run on the worker pool, one
// destination per worker.
func (c *Cluster) route() error {
	c.metrics.Rounds++
	c.mergeResidentPeaks()
	machines := c.machines
	for i := range c.recvW {
		c.recvW[i] = 0
		c.msgCnt[i] = 0
	}
	totalMsgs := 0
	for _, m := range machines {
		if m.sent > c.cfg.MemoryWords {
			c.clearStaged()
			return fmt.Errorf("mpc: machine %d sent %d words in one round, budget %d",
				m.id, m.sent, c.cfg.MemoryWords)
		}
		if m.sent > c.metrics.MaxSentWords {
			c.metrics.MaxSentWords = m.sent
		}
		if c.cfg.PairWords > 0 {
			c.pairEpoch++
			for i := range m.outEnv {
				env := &m.outEnv[i]
				if c.pairStamp[env.to] != c.pairEpoch {
					c.pairStamp[env.to] = c.pairEpoch
					c.pairW[env.to] = 0
				}
				c.pairW[env.to] += env.n
				if c.pairW[env.to] > c.cfg.PairWords {
					c.clearStaged()
					return fmt.Errorf("mpc: congested clique: pair (%d→%d) exchanged %d words in one round, cap %d",
						m.id, env.to, c.pairW[env.to], c.cfg.PairWords)
				}
			}
		}
		for i := range m.outEnv {
			env := &m.outEnv[i]
			c.recvW[env.to] += env.n
			c.msgCnt[env.to]++
			c.metrics.TotalWords += env.n
			c.metrics.TotalMessages++
		}
		totalMsgs += len(m.outEnv)
	}

	// Size the inbox arenas and views (recycled across rounds) and lay out
	// the per-destination task ranges.
	c.taskOff[0] = 0
	for d, m := range machines {
		if c.recvW[d] > c.cfg.MemoryWords {
			c.clearStaged()
			return fmt.Errorf("mpc: machine %d received %d words in one round, budget %d",
				d, c.recvW[d], c.cfg.MemoryWords)
		}
		if c.recvW[d] > c.metrics.MaxRecvWords {
			c.metrics.MaxRecvWords = c.recvW[d]
		}
		m.inArena = Grow(m.inArena, int(c.recvW[d]))
		m.inbox = Grow(m.inbox, int(c.msgCnt[d]))
		c.taskOff[d+1] = c.taskOff[d] + c.msgCnt[d]
		c.taskCur[d] = c.taskOff[d]
		c.wordCur[d] = 0
	}
	c.tasks = Grow(c.tasks, totalMsgs)

	// Counting-sort fill: senders in id order, envelopes in send order, so
	// each destination's task range is already in delivery order.
	for _, m := range machines {
		for i := range m.outEnv {
			env := &m.outEnv[i]
			t := c.taskCur[env.to]
			c.taskCur[env.to] = t + 1
			c.tasks[t] = copyTask{from: int32(m.id), srcOff: env.off, dstOff: c.wordCur[env.to], n: env.n}
			c.wordCur[env.to] += env.n
		}
	}

	// Assemble inboxes. Each destination is owned by exactly one chunk, so
	// workers write disjoint arenas.
	if c.workers > 1 && len(machines) > 1 && totalMsgs >= 64 {
		chunks := c.workers
		if chunks > len(machines) {
			chunks = len(machines)
		}
		c.chunkLen = (len(machines) + chunks - 1) / chunks
		c.wg.Add(chunks)
		for k := 0; k < chunks; k++ {
			c.jobs <- job{c: c, idx: int32(k), kind: jobRoute}
		}
		c.wg.Wait()
	} else {
		for d := range machines {
			c.deliver(d)
		}
	}

	c.clearOutgoing()
	return nil
}

// routeChunk assembles the inboxes of one contiguous chunk of destinations.
//
//mwvc:hotpath
func (c *Cluster) routeChunk(k int) {
	lo := k * c.chunkLen
	hi := lo + c.chunkLen
	if hi > len(c.machines) {
		hi = len(c.machines)
	}
	for d := lo; d < hi; d++ {
		c.deliver(d)
	}
}

// deliver copies destination d's messages into its inbox arena and writes
// the inbox view, in (sender, send-order) order.
//
//mwvc:hotpath
func (c *Cluster) deliver(d int) {
	m := c.machines[d]
	tasks := c.tasks[c.taskOff[d]:c.taskOff[d+1]]
	for k := range tasks {
		t := &tasks[k]
		data := m.inArena[t.dstOff : t.dstOff+t.n : t.dstOff+t.n]
		copy(data, c.machines[t.from].outArena[t.srcOff:t.srcOff+t.n])
		m.inbox[k] = Message{From: int(t.from), To: d, Data: data}
	}
}

// Grow resizes s to n elements without preserving contents, reusing
// capacity and doubling on growth — the recycling primitive behind every
// per-round buffer in the message plane, exported for consumers (e.g.
// internal/core's per-phase scratch) that follow the same allocate-once,
// re-slice-forever discipline.
func Grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	newCap := 2 * cap(s)
	if newCap < n {
		newCap = n
	}
	return make([]T, n, newCap)
}

// AccountRounds adds k rounds to the metrics without executing steps. The
// paper's phase structure relies on standard O(1)-round MPC primitives
// (aggregation trees, sorting [GSZ11]) whose bit-level simulation would add
// nothing to the reproduction; algorithms use this to account for them
// explicitly instead of hiding them.
func (c *Cluster) AccountRounds(k int) {
	if k < 0 {
		panic("mpc: negative round count")
	}
	c.metrics.Rounds += k
}

// ResetResident zeroes every machine's resident memory, for algorithms that
// rebuild machine state from scratch each phase (the partition is fresh per
// phase in Algorithm 2). The high-water metric is unaffected.
func (c *Cluster) ResetResident() {
	for _, m := range c.machines {
		m.resident = 0
	}
}
