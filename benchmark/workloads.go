package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	mwvc "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/solver"
)

// epsilon is the accuracy parameter of every solve.
const epsilon = 0.1

// config is one run's settings.
type config struct {
	seed    uint64
	measure time.Duration // measured duration, after the fixed warm-up
	size    size
	workDir string // where generated input files are written
}

// size fixes the inputs' dimensions and the fixed warm-up. The benchmark
// always runs fullSize; the package test runs tinySize.
type size struct {
	setups            int     // set-ups per run; setup_s is their median
	denseN            int     // dense workloads: G(denseN, denseD)
	denseD            float64 //
	rmatScale         int     // fast-ingest: RMAT(rmatScale, rmatEdgeFactor)
	rmatEdgeFactor    int     //
	serveN            int     // serve-mixed: G(serveN, serveD) per graph
	serveD            float64 //
	serveBase         int     // graphs uploaded during set-up
	servePool         int     // distinct graphs uploaded during the run
	warmOps           int     // library workloads: warm-up operations
	serveWarm         int     // serve-mixed: warm-up requests
	serveRate         float64 // serve-mixed: open-loop request rate (1/s)
	serveReplays      int     // serve-mixed traced run: solves replayed stage by stage
	serveClosedShare  float64 // serve-mixed: share of the measured time spent in the closed loop
	serveClosedMaxRPS float64 // serve-mixed: schedule length bound for the closed loop
}

var fullSize = size{
	setups: 5, denseN: 8000, denseD: 256, rmatScale: 16, rmatEdgeFactor: 8,
	serveN: 10000, serveD: 16, serveBase: 8, servePool: 16,
	warmOps: 3, serveWarm: 100, serveRate: 50, serveReplays: 24,
	serveClosedShare: 0.25, serveClosedMaxRPS: 1000,
}

var tinySize = size{
	setups: 1, denseN: 300, denseD: 24, rmatScale: 9, rmatEdgeFactor: 8,
	serveN: 300, serveD: 8, serveBase: 2, servePool: 3,
	warmOps: 1, serveWarm: 4, serveRate: 200, serveReplays: 4,
	serveClosedShare: 0.25, serveClosedMaxRPS: 2000,
}

// uniformWeights is the vertex-weight model of every workload.
var uniformWeights = gen.UniformRange{Lo: 1, Hi: 100}

// workload is one named input set; BENCHMARK.json and README.md say why
// each is in the benchmark.
type workload struct {
	name  string
	setup func(cfg config) (instance, error)
}

var workloads = []workload{
	{"mpc-dense", func(cfg config) (instance, error) { return newDense(cfg, mwvc.AlgoMPC), nil }},
	{"compress-dense", func(cfg config) (instance, error) { return newDense(cfg, mwvc.AlgoMPCCompress), nil }},
	{"fast-ingest", newIngest},
	{"serve-mixed", newServe},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is a set-up workload.
type instance interface {
	// digest returns the sha256 of the generated input.
	digest() (string, error)
	// run performs the fixed warm-up, measures for cfg.measure and records
	// the end-to-end metrics into m.
	run(ctx context.Context, cfg config, m metricSet) (tally, error)
	// traced measures again with spans recorded into rec at every layer
	// boundary and records the per-layer metrics into m. It runs after run
	// on the same instance.
	traced(ctx context.Context, cfg config, rec *recorder, m metricSet) (tally, error)
	close()
}

// tally counts the operations of a measured phase and the checks they
// failed; p50 is the median operation latency in ms, the basis of
// trace.overhead_pct.
type tally struct {
	attempted, failed int
	errs              []string
	p50               float64
}

// fail counts a failed operation, keeping the first few reasons.
func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	for _, e := range u.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// library is a workload that calls the mwvc facade in a closed loop with
// one caller.
type library struct {
	algo     mwvc.Algorithm
	g        *mwvc.Graph // the generated graph; every cover is checked against it
	path     string      // fast-ingest: the file every operation reads
	fileSize int64       // and its size in bytes
	// facade holds the untraced run's Weight and Bound per operation index,
	// which the traced staged pipeline must reproduce exactly.
	facade map[int][2]float64
}

// newDense builds G(n=8000, d=256) with uniform[1,100) weights: about 1.02M
// edges, solved in memory (no ingest).
func newDense(cfg config, algo mwvc.Algorithm) *library {
	g := gen.GnpAvgDegree(cfg.seed, cfg.size.denseN, cfg.size.denseD)
	return &library{algo: algo, g: gen.ApplyWeights(g, cfg.seed, uniformWeights)}
}

// newIngest writes an RMAT(scale 16, edge factor 8) graph with the Graph500
// quadrant probabilities and uniform[1,100) weights as an "mwvc-el 1" file;
// every operation reads it back and solves it with pdfast.
func newIngest(cfg config) (instance, error) {
	g := gen.RMAT(cfg.seed, cfg.size.rmatScale, cfg.size.rmatEdgeFactor, 0.57, 0.19, 0.19)
	l := &library{algo: mwvc.AlgoPDFast, g: gen.ApplyWeights(g, cfg.seed, uniformWeights)}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	l.path = filepath.Join(cfg.workDir, fmt.Sprintf("fast-ingest-%d-%d.el", os.Getpid(), cfg.seed))
	f, err := os.Create(l.path)
	if err != nil {
		return nil, err
	}
	err = graph.WriteEdgeList(f, l.g)
	if err == nil {
		var st os.FileInfo
		if st, err = f.Stat(); err == nil {
			l.fileSize = st.Size()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(l.path)
		return nil, fmt.Errorf("writing %s: %w", l.path, err)
	}
	return l, nil
}

func (l *library) digest() (string, error) {
	if l.path == "" {
		return serve.HashGraph(l.g)
	}
	data, err := os.ReadFile(l.path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

func (l *library) close() {
	if l.path != "" {
		os.Remove(l.path)
	}
}

// op is the measured operation: read the file (fast-ingest only), then one
// facade solve with the operation's seed.
func (l *library) op(ctx context.Context, cfg config, i int) (*mwvc.Solution, *mwvc.Graph, error) {
	g := l.g
	if l.path != "" {
		var err error
		if g, err = mwvc.ReadGraphFile(l.path); err != nil {
			return nil, nil, err
		}
	}
	sol, err := mwvc.Solve(ctx, g, mwvc.WithAlgorithm(l.algo), mwvc.WithEpsilon(epsilon),
		mwvc.WithSeed(cfg.seed+uint64(i)))
	return sol, g, err
}

func (l *library) run(ctx context.Context, cfg config, m metricSet) (tally, error) {
	var t tally
	for i := 0; i < cfg.size.warmOps; i++ {
		if _, _, err := l.op(ctx, cfg, i); err != nil {
			return t, fmt.Errorf("warm-up: %w", err)
		}
	}
	l.facade = map[int][2]float64{}
	var lat, ratio []float64
	var busy time.Duration
	before := readRuntime()
	for i := cfg.size.warmOps; busy < cfg.measure && ctx.Err() == nil; i++ {
		start := time.Now()
		sol, g, err := l.op(ctx, cfg, i)
		d := time.Since(start)
		busy += d
		t.attempted++
		if err == nil {
			err = l.check(g, sol)
		}
		if err != nil {
			t.fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		lat = append(lat, ms(d))
		ratio = append(ratio, sol.Weight/sol.Bound)
		l.facade[i] = [2]float64{sol.Weight, sol.Bound}
	}
	m.setRuntime(before, readRuntime(), t.attempted)
	m.setDist("latency_p50_ms", "ms", lat, 0.5)
	// About 140 samples: p90 is the highest percentile with ten beyond it.
	m.setDist("latency_p90_ms", "ms", lat, 0.9)
	m.set("throughput_per_s", "1/s", frac(float64(len(lat)), busy.Seconds()), len(lat))
	m.setDist("certified_ratio", "ratio", ratio, 0.5)
	t.p50 = median(lat)
	return t, nil
}

// check validates one facade result against the generated graph.
func (l *library) check(g *mwvc.Graph, sol *mwvc.Solution) error {
	if g.NumVertices() != l.g.NumVertices() || g.NumEdges() != l.g.NumEdges() {
		return fmt.Errorf("ingested graph has %d vertices and %d edges, generated %d and %d",
			g.NumVertices(), g.NumEdges(), l.g.NumVertices(), l.g.NumEdges())
	}
	if err := checkCover(l.g, sol.Cover, sol.Weight); err != nil {
		return err
	}
	return checkBound(sol.Weight, sol.Bound, l.algo == mwvc.AlgoPDFast)
}

// checkCover verifies that cover touches every edge of g and that weight is
// exactly its weight, summed in vertex order as the solver does.
func checkCover(g *mwvc.Graph, cover []bool, weight float64) error {
	if len(cover) != g.NumVertices() {
		return fmt.Errorf("cover has %d entries for %d vertices", len(cover), g.NumVertices())
	}
	ep := g.EdgeEndpoints()
	for i := 0; i < len(ep); i += 2 {
		if !cover[ep[i]] && !cover[ep[i+1]] {
			return fmt.Errorf("edge (%d,%d) is not covered", ep[i], ep[i+1])
		}
	}
	w := 0.0
	for v, in := range cover {
		if in {
			w += g.Weight(mwvc.Vertex(v))
		}
	}
	if !sameBits(w, weight) {
		return fmt.Errorf("reported weight %v, the cover weighs %v", weight, w)
	}
	return nil
}

// checkBound verifies 0 < bound ≤ weight and, for the fast tier, the
// certified 2-approximation.
func checkBound(weight, bound float64, fast bool) error {
	if !(bound > 0 && bound <= weight) {
		return fmt.Errorf("bound %v outside (0, weight %v]", bound, weight)
	}
	if fast && weight > 2*bound {
		return fmt.Errorf("fast-tier certified ratio %v exceeds 2", weight/bound)
	}
	return nil
}

func (l *library) traced(ctx context.Context, cfg config, rec *recorder, m metricSet) (tally, error) {
	var t tally
	counts := &solveCounts{}
	var reads ingest
	var lat, kernel []float64
	var busy time.Duration
	for i := cfg.size.warmOps; busy < cfg.measure && ctx.Err() == nil; i++ {
		start := time.Now()
		root := rec.begin(i, "op", -1)
		g := l.g
		var err error
		if l.path != "" {
			g, err = reads.read(rec, i, root, l.fileSize, func() (*mwvc.Graph, error) { return mwvc.ReadGraphFile(l.path) })
		}
		var out *stagedOutcome
		if err == nil {
			out, err = stagedSolve(ctx, rec, i, root, g, string(l.algo),
				solver.Config{Epsilon: epsilon, Seed: cfg.seed + uint64(i)}, 0, counts)
		}
		rec.end(root)
		d := time.Since(start)
		busy += d
		t.attempted++
		if err == nil {
			err = l.reproduce(ctx, cfg, i, out)
		}
		if err != nil {
			t.fail(fmt.Errorf("traced op %d: %w", i, err))
			continue
		}
		lat = append(lat, ms(d))
		kernel = append(kernel, out.kernelFrac)
	}

	var cl, compCl *clusterStats
	if l.algo != mwvc.AlgoPDFast {
		st, err := runCluster(ctx, l.g, string(l.algo), epsilon, cfg.seed+uint64(cfg.size.warmOps))
		if err != nil {
			return t, fmt.Errorf("cluster run: %w", err)
		}
		if l.algo == mwvc.AlgoMPCCompress {
			compCl = st
		} else {
			cl = st
		}
	}
	layerMetrics(m, rec, counts, kernel, &reads, cl, compCl)
	for _, name := range []string{"improve.steps_p50", "improve.weight_reduction_pct",
		"serve.cache_hit_frac", "serve.coalesced_frac", "serve.rejected_frac"} {
		m.set(name, unitOf(name), 0, 0)
	}
	t.p50 = median(lat)
	return t, nil
}

// reproduce checks a traced operation against the facade's result for the
// same operation index (solving it untimed if the untraced run stopped
// earlier): Weight and Bound must agree bit for bit.
func (l *library) reproduce(ctx context.Context, cfg config, i int, out *stagedOutcome) error {
	want, ok := l.facade[i]
	if !ok {
		sol, _, err := l.op(ctx, cfg, i)
		if err != nil {
			return err
		}
		want = [2]float64{sol.Weight, sol.Bound}
	}
	if !sameBits(out.weight, want[0]) || !sameBits(out.bound, want[1]) {
		return fmt.Errorf("staged pipeline gives weight %v bound %v, facade %v and %v",
			out.weight, out.bound, want[0], want[1])
	}
	return checkBound(out.weight, out.bound, l.algo == mwvc.AlgoPDFast)
}

// unitOf returns the declared unit of a per-layer metric.
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
