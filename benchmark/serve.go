package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	mwvc "repro"
	"repro/internal/gen"
	"repro/internal/reduce"
	"repro/internal/serve"
	"repro/internal/solver"
)

// connections is the number of concurrent client connections (open loop)
// or clients (closed loop): one per core of the two-core reference host.
const connections = 2

// serveInst is the serve-mixed workload: an in-process engine with the
// default configuration behind the HTTP handler on a loopback listener,
// driven from this process over at most two connections.
type serveInst struct {
	size   size
	graphs []graphInput // the base graphs, then the upload pool
	sched  []request
	engine *serve.Engine
	srv    *httptest.Server
	client *http.Client
	avail  []chan struct{} // per pool graph: closed once its first upload returned
	once   []sync.Once
	next   int // first schedule entry not yet sent
}

// graphInput is one generated graph with its upload body and content hash.
type graphInput struct {
	g    *mwvc.Graph
	body []byte // canonical text format, the POST /v1/graphs body
	hash string
}

// request is one scheduled request: the upload of graphs[graph], or a solve
// of it with the JSON body.
type request struct {
	upload bool
	graph  int
	body   []byte
	cover  bool // the solve asks for the cover, which is then validated
}

// newServe generates the base graphs and the upload pool (G(10000, 16) with
// uniform[1,100) weights each), the request schedule, and starts the
// engine with the base graphs uploaded.
func newServe(cfg config) (instance, error) {
	sz := cfg.size
	s := &serveInst{size: sz}
	for i := 0; i < sz.serveBase+sz.servePool; i++ {
		g, err := irreducibleGraph(cfg.seed<<20|uint64(i)<<8, sz.serveN, sz.serveD)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := mwvc.WriteGraph(&buf, g); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(buf.Bytes())
		s.graphs = append(s.graphs, graphInput{g: g, body: buf.Bytes(), hash: "sha256:" + hex.EncodeToString(sum[:])})
	}
	closed := time.Duration(float64(cfg.measure) * sz.serveClosedShare)
	n := sz.serveWarm + int(sz.serveRate*(cfg.measure-closed).Seconds()) + int(sz.serveClosedMaxRPS*closed.Seconds())
	sched, err := s.schedule(cfg.seed, max(n, digestRequests))
	if err != nil {
		return nil, err
	}
	s.sched = sched
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// irreducibleGraph draws G(n, d) with uniform[1,100) weights from seed,
// seed+1, ... until no reduction rule applies to it (about one draw in ten
// has a vertex some rule removes). A solution of a reduced graph keeps its
// kernel reachable from the solution cache, so without this the server's
// peak RSS would depend on how many of the drawn graphs happened to reduce.
func irreducibleGraph(seed uint64, n int, d float64) (*mwvc.Graph, error) {
	for try := uint64(0); try < 256; try++ {
		g := gen.ApplyWeights(gen.GnpAvgDegree(seed+try, n, d), seed+try, uniformWeights)
		red, err := reduce.Run(context.Background(), g)
		if err != nil {
			return nil, err
		}
		if red.Trace == nil {
			return g, nil
		}
	}
	return nil, fmt.Errorf("no irreducible G(%d, %g) among 256 draws from seed %d", n, d, seed)
}

// schedule draws the request mix: 10% uploads of the pool graphs in turn
// (the first upload of each is new to the store, later ones re-upload it),
// and 90% solves of a base or already-scheduled pool graph. Of the solves,
// 20% repeat an earlier tuple (a cache hit, or coalesced when the first is
// still running); the others are fresh tuples with 35% tier "fast", 35%
// tier "accurate", 20% algorithm mpc-compress and 10% pdfast with a 20 ms
// improvement budget. Every 10th solve asks for the cover.
func (s *serveInst) schedule(seed uint64, n int) ([]request, error) {
	rnd := rand.New(rand.NewPCG(seed, 0x6d777663))
	nBase, nPool := s.size.serveBase, s.size.servePool
	var sched, tuples []request
	uploads, solves := 0, 0
	for k := 0; k < n; k++ {
		if rnd.Float64() < 0.10 {
			sched = append(sched, request{upload: true, graph: nBase + uploads%nPool})
			uploads++
			continue
		}
		solves++
		var r request
		if len(tuples) > 0 && rnd.Float64() < 0.20 {
			r = tuples[rnd.IntN(len(tuples))]
		} else {
			r.graph = rnd.IntN(nBase + min(uploads, nPool))
			body := serve.SolveRequest{Graph: s.graphs[r.graph].hash, Seed: seed<<32 | uint64(k)}
			switch x := rnd.Float64(); {
			case x < 0.35:
				body.Tier = solver.TierFast
			case x < 0.70:
				body.Tier = solver.TierAccurate
			case x < 0.90:
				body.Algorithm = string(mwvc.AlgoMPCCompress)
			default:
				body.Algorithm = string(mwvc.AlgoPDFast)
				body.ImproveBudgetMS = 20
			}
			data, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			r.body = data
			tuples = append(tuples, r)
		}
		if r.cover = solves%10 == 0; r.cover {
			var body serve.SolveRequest
			if err := json.Unmarshal(r.body, &body); err != nil {
				return nil, err
			}
			body.IncludeCover = true
			data, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			r.body = data
		}
		sched = append(sched, r)
	}
	return sched, nil
}

// start brings up a fresh engine, listener and client, uploads the base
// graphs, and rewinds the schedule.
func (s *serveInst) start() error {
	eng, err := serve.NewEngine(serve.Config{})
	if err != nil {
		return err
	}
	s.engine = eng
	s.srv = httptest.NewServer(serve.NewHandler(eng))
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections}}
	s.next = 0
	s.avail = make([]chan struct{}, s.size.servePool)
	s.once = make([]sync.Once, s.size.servePool)
	for i := range s.avail {
		s.avail[i] = make(chan struct{})
	}
	for i := 0; i < s.size.serveBase; i++ {
		if err := s.checkUpload(i, s.post(context.Background(), "/v1/graphs", s.graphs[i].body)); err != nil {
			return fmt.Errorf("uploading base graph %d: %w", i, err)
		}
	}
	return nil
}

func (s *serveInst) close() {
	if s.srv != nil {
		s.client.CloseIdleConnections()
		s.srv.Close()
		s.engine.Close()
		s.srv = nil
	}
}

func (s *serveInst) digest() (string, error) {
	h := sha256.New()
	for _, g := range s.graphs {
		fmt.Fprintln(h, g.hash)
	}
	// The schedule's length depends on -seconds; its prefix does not.
	for _, r := range s.sched[:digestRequests] {
		fmt.Fprintf(h, "%t %d %s\n", r.upload, r.graph, r.body)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// digestRequests is the length of the schedule prefix the input digest
// covers; every schedule is at least this long.
const digestRequests = 4096

// reply is an HTTP response as the client saw it.
type reply struct {
	code int
	data []byte
	err  error
}

func (s *serveInst) post(ctx context.Context, path string, body []byte) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return reply{code: resp.StatusCode, data: data, err: err}
}

// reqResult is the client-side record of one request.
type reqResult struct {
	upload    bool
	err       error
	rejected  bool      // 429 or 503
	lat, late float64   // ms from the due time (open loop) or the send (closed loop)
	recv      time.Time // when the response was read
	resp      serve.SolveResponse
	queue     float64 // traced: server queue wait (ms)
	solve     float64 // traced: server solve time (ms)
	http      float64 // traced: latency from send minus queue and solve (ms)
}

// do sends schedule entry k, due at due (zero in the closed loop), checks
// the response, and records spans when rec is non-nil.
func (s *serveInst) do(ctx context.Context, k int, due time.Time, rec *recorder) reqResult {
	r := s.sched[k]
	res := reqResult{upload: r.upload}
	if !r.upload && r.graph >= s.size.serveBase {
		select {
		case <-s.avail[r.graph-s.size.serveBase]:
		case <-ctx.Done():
			res.err = fmt.Errorf("request %d: graph %d was never uploaded", k, r.graph)
			return res
		}
	}
	path, body := "/v1/solve", r.body
	if r.upload {
		path, body = "/v1/graphs", s.graphs[r.graph].body
	}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	rep := s.post(ctx, path, body)
	res.recv = time.Now()
	res.lat, res.late = ms(res.recv.Sub(due)), ms(sent.Sub(due))
	res.rejected = rep.code == http.StatusTooManyRequests || rep.code == http.StatusServiceUnavailable
	if r.upload {
		res.err = s.checkUpload(r.graph, rep)
		// Release the solves waiting for this graph even when the upload
		// failed: they then fail too instead of waiting for the deadline.
		p := r.graph - s.size.serveBase
		s.once[p].Do(func() { close(s.avail[p]) })
	} else {
		res.err = s.checkSolve(r, rep, &res.resp)
	}
	if res.err != nil {
		res.err = fmt.Errorf("request %d: %w", k, res.err)
		return res
	}
	if rec != nil {
		root := rec.add(k, "op", -1, due, res.recv)
		name := "serve.request"
		if r.upload {
			name = "serve.upload"
		}
		sp := rec.add(k, name, root, sent, res.recv)
		if req, ok := s.engine.Lookup(res.resp.ID); ok {
			q, st, d := req.Times()
			rec.add(k, "serve.queue", sp, q, st)
			rec.add(k, "serve.solve", sp, st, d)
			res.queue, res.solve = ms(st.Sub(q)), ms(d.Sub(st))
			res.http = ms(res.recv.Sub(sent)) - res.queue - res.solve
		}
	}
	return res
}

// checkUpload verifies that an upload's response names the graph's content
// hash.
func (s *serveInst) checkUpload(i int, rep reply) error {
	if err := rep.failure(); err != nil {
		return err
	}
	var resp serve.GraphResponse
	if err := json.Unmarshal(rep.data, &resp); err != nil {
		return fmt.Errorf("decoding upload response: %w", err)
	}
	if resp.Graph != s.graphs[i].hash {
		return fmt.Errorf("upload of graph %d answered %s, want %s", i, resp.Graph, s.graphs[i].hash)
	}
	return nil
}

// checkSolve verifies a solve response: status done, 0 < bound ≤ weight,
// ratio ≤ 2 from pdfast, and a requested cover valid on the local copy of
// the graph with exactly the reported weight.
func (s *serveInst) checkSolve(r request, rep reply, resp *serve.SolveResponse) error {
	if err := rep.failure(); err != nil {
		return err
	}
	if err := json.Unmarshal(rep.data, resp); err != nil {
		return fmt.Errorf("decoding solve response: %w", err)
	}
	sol := resp.Solution
	if resp.Status != serve.StatusDone || sol == nil {
		return fmt.Errorf("solve %s ended %q: %s", resp.ID, resp.Status, resp.Error)
	}
	if err := checkBound(sol.Weight, sol.Bound, resp.Algorithm == string(mwvc.AlgoPDFast)); err != nil {
		return err
	}
	if r.cover {
		return checkCover(s.graphs[r.graph].g, sol.Cover, sol.Weight)
	}
	return nil
}

func (r reply) failure() error {
	if r.err != nil {
		return r.err
	}
	if r.code != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", r.code, bytes.TrimSpace(r.data))
	}
	return nil
}

// openLoop sends the next count schedule entries at the fixed rate, evenly
// spaced, over at most two connections. Each latency is timed from the
// request's due time, so a stall also delays the requests behind it.
func (s *serveInst) openLoop(ctx context.Context, count int, rec *recorder) []reqResult {
	first := s.next
	s.next += count
	out := make([]reqResult, count)
	interval := time.Duration(float64(time.Second) / s.size.serveRate)
	start := time.Now()
	var claim atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(claim.Add(1)) - 1
				if i >= count {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				out[i] = s.do(ctx, first+i, due, rec)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs two clients, each sending its next request as soon as the
// previous one returns, for d. It returns the results and the number of
// responses received within d.
func (s *serveInst) closedLoop(ctx context.Context, d time.Duration, rec *recorder) ([]reqResult, int) {
	first := s.next
	limit := len(s.sched) - first
	out := make([]reqResult, limit)
	end := time.Now().Add(d)
	var claim atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(claim.Add(1)) - 1
				if i >= limit {
					return
				}
				out[i] = s.do(ctx, first+i, time.Time{}, rec)
			}
		}()
	}
	wg.Wait()
	n := min(int(claim.Load()), limit)
	s.next = first + n
	within := 0
	for _, r := range out[:n] {
		if r.err == nil && !r.recv.After(end) {
			within++
		}
	}
	return out[:n], within
}

// load runs the fixed warm-up, the open-loop phase and the closed-loop
// phase, and tallies every request's checks.
func (s *serveInst) load(ctx context.Context, cfg config, rec *recorder) (open, closed []reqResult, within int, closedFor time.Duration, t tally) {
	closedFor = time.Duration(float64(cfg.measure) * s.size.serveClosedShare)
	warm := s.openLoop(ctx, s.size.serveWarm, nil)
	open = s.openLoop(ctx, int(s.size.serveRate*(cfg.measure-closedFor).Seconds()), rec)
	closed, within = s.closedLoop(ctx, closedFor, rec)
	for _, phase := range [][]reqResult{warm, open, closed} {
		for _, r := range phase {
			t.attempted++
			if r.err != nil {
				t.fail(r.err)
			}
		}
	}
	return open, closed, within, closedFor, t
}

func (s *serveInst) run(ctx context.Context, cfg config, m metricSet) (tally, error) {
	before := readRuntime()
	open, closed, within, closedFor, t := s.load(ctx, cfg, nil)
	m.setRuntime(before, readRuntime(), t.attempted)
	var lat, late, upload, closedLat, ratio []float64
	for _, r := range open {
		if r.err == nil {
			lat = append(lat, r.lat)
			late = append(late, r.late)
			if r.upload {
				upload = append(upload, r.lat)
			}
		}
	}
	for _, r := range closed {
		if r.err == nil {
			closedLat = append(closedLat, r.lat)
		}
	}
	for _, r := range append(slices.Clone(open), closed...) {
		if r.err == nil && !r.upload {
			ratio = append(ratio, r.resp.Solution.Weight/r.resp.Solution.Bound)
		}
	}
	m.setDist("latency_p50_ms", "ms", lat, 0.5)
	m.setDist("latency_p90_ms", "ms", lat, 0.9)
	m.setDist("latency_p99_ms", "ms", lat, 0.99)
	m.set("throughput_per_s", "1/s", float64(within)/closedFor.Seconds(), within)
	m.setDist("certified_ratio", "ratio", ratio, 0.5)
	m.setDist("loadgen.late_p99_ms", "ms", late, 0.99)
	m.setDist("serve.upload_ms_p50", "ms", upload, 0.5)
	m.setDist("closed.latency_p50_ms", "ms", closedLat, 0.5)
	t.p50 = median(lat)
	return t, nil
}

func (s *serveInst) traced(ctx context.Context, cfg config, rec *recorder, m metricSet) (tally, error) {
	// A fresh engine, so the traced run meets the same empty cache and
	// store as the untraced one.
	s.close()
	if err := s.start(); err != nil {
		return tally{}, err
	}
	open, closed, _, _, t := s.load(ctx, cfg, rec)
	var lat, queue, solve, httpMS, improveMS, steps, gain []float64
	var solves, cached, coalesced, rejected int
	var fresh []reqResult
	for _, phase := range [][]reqResult{open, closed} {
		for _, r := range phase {
			if r.rejected {
				rejected++
			}
			if r.err != nil || r.upload {
				continue
			}
			solves++
			switch {
			case r.resp.Cached:
				cached++
			case r.resp.Coalesced:
				coalesced++
			default:
				fresh = append(fresh, r)
				if imp := r.resp.Solution.Improvement; imp != nil {
					improveMS = append(improveMS, float64(imp.ImproveNS)/1e6)
					steps = append(steps, float64(imp.Steps))
					gain = append(gain, 100*frac(imp.WeightBefore-imp.WeightAfter, imp.WeightBefore))
				}
			}
		}
	}
	for _, r := range open {
		if r.err == nil {
			lat = append(lat, r.lat)
			if !r.upload {
				queue = append(queue, r.queue)
				solve = append(solve, r.solve)
				httpMS = append(httpMS, r.http)
			}
		}
	}
	m.setDist("serve.queue_ms_p50", "ms", queue, 0.5)
	m.setDist("serve.queue_ms_p99", "ms", queue, 0.99)
	m.setDist("serve.solve_ms_p50", "ms", solve, 0.5)
	m.setDist("serve.http_ms_p50", "ms", httpMS, 0.5)
	m.set("serve.cache_hit_frac", "frac", frac(float64(cached), float64(solves)), solves)
	m.set("serve.coalesced_frac", "frac", frac(float64(coalesced), float64(solves)), solves)
	m.set("serve.rejected_frac", "frac", frac(float64(rejected), float64(len(open)+len(closed))), len(open)+len(closed))
	m.setDist("improve.steps_p50", "count", steps, 0.5)
	m.setDist("improve.weight_reduction_pct", "%", gain, 0.5)
	m.setDist("improve.ms_p50", "ms", improveMS, 0.5)
	t.p50 = median(lat)

	rt, err := s.replay(ctx, rec, fresh, m)
	t.add(rt)
	return t, err
}

// replay re-runs the first fresh solves of the traced load stage by stage
// on the client's copies of the graphs, with the server's per-solve
// parallelism, so the per-layer metrics cover serve-mixed's own inputs. The
// staged Bound must equal the server's bit for bit, and so must the Weight
// unless an improvement budget (wall-clock bound) was set. It also parses
// some upload bodies to time graph ingest.
func (s *serveInst) replay(ctx context.Context, rec *recorder, fresh []reqResult, m metricSet) (tally, error) {
	var t tally
	const replayOp = 1 << 20 // op ids of replays follow the load's
	counts := &solveCounts{}
	var kernel []float64
	var cl, compCl *clusterStats
	for j, r := range fresh[:min(len(fresh), s.size.serveReplays)] {
		g, ok := s.graphByHash(r.resp.Graph)
		if !ok {
			return t, fmt.Errorf("replay: unknown graph %s", r.resp.Graph)
		}
		sol := r.resp.Solution
		cfg := solver.Config{Epsilon: r.resp.Epsilon, Seed: r.resp.Seed, Parallelism: s.engine.Config().SolverParallelism}
		budget := time.Duration(r.resp.ImproveBudgetMS) * time.Millisecond
		root := rec.begin(replayOp+j, "replay", -1)
		out, err := stagedSolve(ctx, rec, replayOp+j, root, g, r.resp.Algorithm, cfg, budget, counts)
		rec.end(root)
		t.attempted++
		switch {
		case err != nil:
		case !sameBits(out.bound, sol.Bound):
			err = fmt.Errorf("bound %v, server %v", out.bound, sol.Bound)
		case budget == 0 && !sameBits(out.weight, sol.Weight):
			err = fmt.Errorf("weight %v, server %v", out.weight, sol.Weight)
		}
		if err != nil {
			t.fail(fmt.Errorf("replay of %s: %w", r.resp.ID, err))
			continue
		}
		kernel = append(kernel, out.kernelFrac)
		if (r.resp.Algorithm == "mpc" && cl == nil) || (r.resp.Algorithm == "mpc-compress" && compCl == nil) {
			st, err := runCluster(ctx, g, r.resp.Algorithm, cfg.Epsilon, cfg.Seed)
			if err != nil {
				return t, fmt.Errorf("cluster run: %w", err)
			}
			if r.resp.Algorithm == "mpc" {
				cl = st
			} else {
				compCl = st
			}
		}
	}
	var reads ingest
	for j, g := range s.graphs[s.size.serveBase:] {
		root := rec.begin(2*replayOp+j, "replay", -1)
		_, err := reads.read(rec, 2*replayOp+j, root, int64(len(g.body)),
			func() (*mwvc.Graph, error) { return mwvc.ReadGraph(bytes.NewReader(g.body)) })
		rec.end(root)
		if err != nil {
			return t, fmt.Errorf("parsing upload body: %w", err)
		}
	}
	layerMetrics(m, rec, counts, kernel, &reads, cl, compCl)
	return t, nil
}

func (s *serveInst) graphByHash(hash string) (*mwvc.Graph, bool) {
	for _, g := range s.graphs {
		if g.hash == hash {
			return g.g, true
		}
	}
	return nil, false
}
