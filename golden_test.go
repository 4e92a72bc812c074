package mwvc_test

// Golden fingerprints of the two Algorithm 2 solvers. Each case hashes the
// cover, the Float64bits of every dual, the round and phase counts, and the
// full observer event stream into one SHA-256 digest. The table below pins
// the digests, so a refactor of the phase driver that moves a single bit of
// output, or reorders a single event, fails here with the case's name.
//
// The diff grid also pins the standalone Algorithm 1 solvers, `centralized`
// and `local-uniform`. Algorithm 2's final phase runs the same loop, but
// with core's threshold closure and degree-aware initialization only, so
// RandomThresholds and the uniform initialization are pinned here alone.
// It pins the fast tier's raw outputs as well: `pdfast` (whose synchronized
// rounds never start on these graphs, under 4,096 edges, so only its serial
// tail runs), `bye` and `greedy`, and the congested-clique simulation of
// Algorithm 1, `congested-clique`.
//
// The pipeline cases run the whole mwvc.Solve path with reduction on, so the
// kernelization stage is pinned too: the lifted cover, Weight and Bound bits,
// and every reduction count.
//
// The dense cases solve G(8000, 256), the mpc-dense benchmark input, and take
// a few seconds; they run only when MWVC_GOLDEN_DENSE is set.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"sort"
	"testing"

	mwvc "repro"
	"repro/internal/cli"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
)

// goldenDigests maps a case name to the first 16 hex digits of its digest.
var goldenDigests = map[string]string{
	"bimodal/10/mpc":                               "d47276f46f052e3e",
	"bimodal/10/mpc-compress":                      "c9b80dbdea6c9b2b",
	"compress/gnp-uniform/1/mpc":                   "53c86220c5a9faf6",
	"compress/gnp-uniform/1/mpc-compress":          "49184d98200dbd97",
	"compress/gnp-uniform/2/mpc":                   "75fef27dbc333a89",
	"compress/gnp-uniform/2/mpc-compress":          "3705145ec619e572",
	"compress/regular-unit/1/mpc":                  "4f4f22ad62f5cdc3",
	"compress/regular-unit/1/mpc-compress":         "86a5c1d6d38f55bc",
	"compress/regular-unit/2/mpc":                  "ea5863ef692ac8fd",
	"compress/regular-unit/2/mpc-compress":         "9af763b856780c67",
	"compress/smallworld-degree/1/mpc":             "af1267ff5f75de76",
	"compress/smallworld-degree/1/mpc-compress":    "fa3cd0204a3e4183",
	"compress/smallworld-degree/2/mpc":             "76fb904a72fe2072",
	"compress/smallworld-degree/2/mpc-compress":    "4cd347b08c7c8adf",
	"core/collect-coupling/bimodal":                "9efe28e04ca31713",
	"core/collect-coupling/gnp-uniform":            "f36a33193a38b5b0",
	"core/disable-bias/bimodal":                    "a92e12cb94eb92e9",
	"core/disable-bias/gnp-uniform":                "581a4512597a9e12",
	"core/disable-inactive-split/bimodal":          "b88e0b9ca7f3f719",
	"core/disable-inactive-split/gnp-uniform":      "e2e768e413ea8c44",
	"core/fixed-thresholds/bimodal":                "7cb56804273dd858",
	"core/fixed-thresholds/gnp-uniform":            "a2532ee6a8d9f06d",
	"core/uniform-init-hub/bimodal":                "7f5a3b487104514b",
	"core/uniform-init/bimodal":                    "e1b68d17e197522a",
	"core/uniform-init/gnp-uniform":                "be50e2ed5a6fd84d",
	"dense/1/mpc":                                  "af0bbae1d44dbb4c",
	"dense/1/mpc-compress":                         "a1449b5bbe7185e3",
	"dense/2/mpc":                                  "a90480eed23f7dba",
	"dense/2/mpc-compress":                         "c7e326500b0737e4",
	"dense/3/mpc":                                  "595a57bf0266fd1f",
	"dense/3/mpc-compress":                         "f4defa40c623b291",
	"diff/bipartite-loguniform/1/bye":              "d5315d9757c2455f",
	"diff/bipartite-loguniform/1/centralized":      "2215e313392bb86b",
	"diff/bipartite-loguniform/1/congested-clique": "a224e43ff2fefbac",
	"diff/bipartite-loguniform/1/greedy":           "2343754309bec378",
	"diff/bipartite-loguniform/1/local-uniform":    "4a6bc3cac7646d9b",
	"diff/bipartite-loguniform/1/mpc":              "8fee41fd4d776047",
	"diff/bipartite-loguniform/1/mpc-compress":     "8fee41fd4d776047",
	"diff/bipartite-loguniform/1/pdfast":           "6288b26f2cea306c",
	"diff/bipartite-loguniform/2/bye":              "3049df8a5e7979c6",
	"diff/bipartite-loguniform/2/centralized":      "158aa11081117fcb",
	"diff/bipartite-loguniform/2/congested-clique": "30aee68839cb17c2",
	"diff/bipartite-loguniform/2/greedy":           "ffba1037ff0c3b7f",
	"diff/bipartite-loguniform/2/local-uniform":    "86c10d2193fe3f24",
	"diff/bipartite-loguniform/2/mpc":              "c8d8fb51df031eb8",
	"diff/bipartite-loguniform/2/mpc-compress":     "c8d8fb51df031eb8",
	"diff/bipartite-loguniform/2/pdfast":           "609e530a0db7f5c0",
	"diff/bipartite-loguniform/3/bye":              "ff2cb6c187b35fae",
	"diff/bipartite-loguniform/3/centralized":      "84e583dc4fd7c2b9",
	"diff/bipartite-loguniform/3/congested-clique": "1340b4e287ca3f9e",
	"diff/bipartite-loguniform/3/greedy":           "a6020e03557b24a3",
	"diff/bipartite-loguniform/3/local-uniform":    "5af93c190019e040",
	"diff/bipartite-loguniform/3/mpc":              "a08eb118f0dd13c5",
	"diff/bipartite-loguniform/3/mpc-compress":     "a08eb118f0dd13c5",
	"diff/bipartite-loguniform/3/pdfast":           "3e089c91f18c00c8",
	"diff/gnp-uniform/1/bye":                       "ba4f0e471899ae8f",
	"diff/gnp-uniform/1/centralized":               "be1fc75bf7bc54bb",
	"diff/gnp-uniform/1/congested-clique":          "5807c503d3c1d47d",
	"diff/gnp-uniform/1/greedy":                    "e5de55a186855168",
	"diff/gnp-uniform/1/local-uniform":             "ab03a3d6211c520f",
	"diff/gnp-uniform/1/mpc":                       "ad3e6b563c7be83b",
	"diff/gnp-uniform/1/mpc-compress":              "ad3e6b563c7be83b",
	"diff/gnp-uniform/1/pdfast":                    "a7828c8ed0f9abe2",
	"diff/gnp-uniform/2/bye":                       "9d3fd5dfbbc46ba1",
	"diff/gnp-uniform/2/centralized":               "116364092e8be14b",
	"diff/gnp-uniform/2/congested-clique":          "9bd7113b541930ea",
	"diff/gnp-uniform/2/greedy":                    "c8f867c42399a9d8",
	"diff/gnp-uniform/2/local-uniform":             "f951562fcf0a71f9",
	"diff/gnp-uniform/2/mpc":                       "dbf04b88490ee94d",
	"diff/gnp-uniform/2/mpc-compress":              "dbf04b88490ee94d",
	"diff/gnp-uniform/2/pdfast":                    "e5b7873820c95013",
	"diff/gnp-uniform/3/bye":                       "3937b6d95f21230f",
	"diff/gnp-uniform/3/centralized":               "93c0188b35cfc417",
	"diff/gnp-uniform/3/congested-clique":          "9f9465bb220089f6",
	"diff/gnp-uniform/3/greedy":                    "28ca5cc724a35ad2",
	"diff/gnp-uniform/3/local-uniform":             "87b1ee0c3269e7c9",
	"diff/gnp-uniform/3/mpc":                       "4be3192c80004050",
	"diff/gnp-uniform/3/mpc-compress":              "4be3192c80004050",
	"diff/gnp-uniform/3/pdfast":                    "fec069835bd6f0e2",
	"diff/powerlaw-exp/1/bye":                      "a965b40d793a3a48",
	"diff/powerlaw-exp/1/centralized":              "0b35a22825db120f",
	"diff/powerlaw-exp/1/congested-clique":         "689f5a8abf994bb9",
	"diff/powerlaw-exp/1/greedy":                   "eedbbf272bb4fe55",
	"diff/powerlaw-exp/1/local-uniform":            "2e80169400909a3f",
	"diff/powerlaw-exp/1/mpc":                      "6aa2ad60c9a7e1d0",
	"diff/powerlaw-exp/1/mpc-compress":             "6aa2ad60c9a7e1d0",
	"diff/powerlaw-exp/1/pdfast":                   "8c6af2cc1ca30113",
	"diff/powerlaw-exp/2/bye":                      "c91230b5a72e7900",
	"diff/powerlaw-exp/2/centralized":              "b9b5960501f46740",
	"diff/powerlaw-exp/2/congested-clique":         "4c9887134690e544",
	"diff/powerlaw-exp/2/greedy":                   "ed3324f038e25fdc",
	"diff/powerlaw-exp/2/local-uniform":            "c76f2d716ccc29d9",
	"diff/powerlaw-exp/2/mpc":                      "87c995676e6665ba",
	"diff/powerlaw-exp/2/mpc-compress":             "87c995676e6665ba",
	"diff/powerlaw-exp/2/pdfast":                   "30969320902a75a0",
	"diff/powerlaw-exp/3/bye":                      "f523c38fe906f8df",
	"diff/powerlaw-exp/3/centralized":              "e5ccd99c3b35a296",
	"diff/powerlaw-exp/3/congested-clique":         "19699e31f784af11",
	"diff/powerlaw-exp/3/greedy":                   "73fbdd2011010f5e",
	"diff/powerlaw-exp/3/local-uniform":            "cc23a9a1d7c8fc78",
	"diff/powerlaw-exp/3/mpc":                      "6fe9cc06b4634628",
	"diff/powerlaw-exp/3/mpc-compress":             "6fe9cc06b4634628",
	"diff/powerlaw-exp/3/pdfast":                   "ab556622fae6b86c",
	"diff/regular-unit/1/bye":                      "43929f5c644e2bc8",
	"diff/regular-unit/1/centralized":              "6c8103cadfce510c",
	"diff/regular-unit/1/congested-clique":         "031883310cd0d6d3",
	"diff/regular-unit/1/greedy":                   "4a26f75a95899d98",
	"diff/regular-unit/1/local-uniform":            "2586e0984be6e788",
	"diff/regular-unit/1/mpc":                      "8f754c5417871adb",
	"diff/regular-unit/1/mpc-compress":             "8f754c5417871adb",
	"diff/regular-unit/1/pdfast":                   "028b3b12bae6f338",
	"diff/regular-unit/2/bye":                      "85f78ae747c11095",
	"diff/regular-unit/2/centralized":              "be03a0380fddc5d1",
	"diff/regular-unit/2/congested-clique":         "d6ec694646d2a40f",
	"diff/regular-unit/2/greedy":                   "22954c80c3d28012",
	"diff/regular-unit/2/local-uniform":            "a4fd935b1a174fb2",
	"diff/regular-unit/2/mpc":                      "19a018e13b49136b",
	"diff/regular-unit/2/mpc-compress":             "19a018e13b49136b",
	"diff/regular-unit/2/pdfast":                   "9cf4474868d6574e",
	"diff/regular-unit/3/bye":                      "287bb64fde97948e",
	"diff/regular-unit/3/centralized":              "1353ef7878d32155",
	"diff/regular-unit/3/congested-clique":         "34206243a8274275",
	"diff/regular-unit/3/greedy":                   "500b5d06b882e9f9",
	"diff/regular-unit/3/local-uniform":            "abb6bc22c911a85c",
	"diff/regular-unit/3/mpc":                      "b64684044265f2f3",
	"diff/regular-unit/3/mpc-compress":             "b64684044265f2f3",
	"diff/regular-unit/3/pdfast":                   "f771bd99c467dd91",
	"diff/smallworld-degree/1/bye":                 "b3ed515e18f2b97b",
	"diff/smallworld-degree/1/centralized":         "0027bec734dda70a",
	"diff/smallworld-degree/1/congested-clique":    "b3e8ec93e02c235c",
	"diff/smallworld-degree/1/greedy":              "a31868417cded511",
	"diff/smallworld-degree/1/local-uniform":       "1473061f8fadd83e",
	"diff/smallworld-degree/1/mpc":                 "358b80ea83509e69",
	"diff/smallworld-degree/1/mpc-compress":        "358b80ea83509e69",
	"diff/smallworld-degree/1/pdfast":              "31388c50e1cc7d91",
	"diff/smallworld-degree/2/bye":                 "1dbe6cfd31170366",
	"diff/smallworld-degree/2/centralized":         "93e086c00e0d7464",
	"diff/smallworld-degree/2/congested-clique":    "2a05c339e9cb6810",
	"diff/smallworld-degree/2/greedy":              "320f07329ee49c9e",
	"diff/smallworld-degree/2/local-uniform":       "7fdf44d01032a1ef",
	"diff/smallworld-degree/2/mpc":                 "8016055aee1d5407",
	"diff/smallworld-degree/2/mpc-compress":        "8016055aee1d5407",
	"diff/smallworld-degree/2/pdfast":              "3514d4b7c9e04fdd",
	"diff/smallworld-degree/3/bye":                 "1652874ac6f43036",
	"diff/smallworld-degree/3/centralized":         "4c5b2154fa335137",
	"diff/smallworld-degree/3/congested-clique":    "70beef457ba8e61f",
	"diff/smallworld-degree/3/greedy":              "616b3ec3ead37782",
	"diff/smallworld-degree/3/local-uniform":       "d3cb4dde0840265b",
	"diff/smallworld-degree/3/mpc":                 "7505b985640cf672",
	"diff/smallworld-degree/3/mpc-compress":        "7505b985640cf672",
	"diff/smallworld-degree/3/pdfast":              "9e46924cf3f26071",
	"paper/gnp-uniform/1/mpc":                      "70f33f96493c9995",
	"paper/gnp-uniform/1/mpc-compress":             "70f33f96493c9995",
	"pipeline/bipartite-loguniform/1/mpc":          "03e313aeb502cfcf",
	"pipeline/bipartite-loguniform/1/pdfast":       "0416354faf42f8a2",
	"pipeline/bipartite-loguniform/2/mpc":          "c6b0dab28bdc1e90",
	"pipeline/bipartite-loguniform/2/pdfast":       "c6b0dab28bdc1e90",
	"pipeline/bipartite-loguniform/3/mpc":          "c0602097c11c64a8",
	"pipeline/bipartite-loguniform/3/pdfast":       "52e6823e8e196c11",
	"pipeline/dense/1/mpc":                         "29beff7afd187dde",
	"pipeline/gnp-uniform/1/mpc":                   "2fe290fb7d8fc94a",
	"pipeline/gnp-uniform/1/pdfast":                "afaf777d21925a9c",
	"pipeline/gnp-uniform/2/mpc":                   "bc3311122cd55127",
	"pipeline/gnp-uniform/2/pdfast":                "4fc6a008ec014211",
	"pipeline/gnp-uniform/3/mpc":                   "5646210c708f04ae",
	"pipeline/gnp-uniform/3/pdfast":                "a31ceeecd83768a0",
	"pipeline/powerlaw-exp/1/mpc":                  "31cd27989979d772",
	"pipeline/powerlaw-exp/1/pdfast":               "de54f27cbad61123",
	"pipeline/powerlaw-exp/2/mpc":                  "72548bbf872b1b2b",
	"pipeline/powerlaw-exp/2/pdfast":               "57c553150b10ae5d",
	"pipeline/powerlaw-exp/3/mpc":                  "f44170f118eb1070",
	"pipeline/powerlaw-exp/3/pdfast":               "e60bc3d02758d52f",
	"pipeline/regular-unit/1/mpc":                  "b16fa64cb064d7e2",
	"pipeline/regular-unit/1/pdfast":               "fe07bd30b355311c",
	"pipeline/regular-unit/2/mpc":                  "923ef8d91717ccb5",
	"pipeline/regular-unit/2/pdfast":               "3ca192e242c3444b",
	"pipeline/regular-unit/3/mpc":                  "d2bec1a7823f76d8",
	"pipeline/regular-unit/3/pdfast":               "220da9dae01d96ee",
	"pipeline/smallworld-degree/1/mpc":             "addb8904947a1285",
	"pipeline/smallworld-degree/1/pdfast":          "deaa1f236bbf2c5a",
	"pipeline/smallworld-degree/2/mpc":             "fc58aa0cdba7b1d4",
	"pipeline/smallworld-degree/2/pdfast":          "5ad7dbf4507d97a4",
	"pipeline/smallworld-degree/3/mpc":             "cce55082f868a1c9",
	"pipeline/smallworld-degree/3/pdfast":          "066d446459e2ca40",
	"split/bimodal/1/gather-1":                     "344d4cf21bc907a3",
	"split/bimodal/1/gather-2000":                  "66205bca3ea436a1",
	"split/bimodal/2/gather-2000":                  "3e3286221054340d",
}

// digester accumulates a case's fingerprint.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digester) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digester) solve(cover []bool, duals []float64, rounds, phases int, events []solver.Event) {
	d.int(int64(len(cover)))
	for _, in := range cover {
		if in {
			d.int(1)
		} else {
			d.int(0)
		}
	}
	d.int(int64(len(duals)))
	for _, x := range duals {
		d.float(x)
	}
	d.int(int64(rounds))
	d.int(int64(phases))
	d.int(int64(len(events)))
	for _, e := range events {
		d.int(int64(e.Kind))
		d.int(int64(e.Phase))
		d.int(int64(e.Round))
		d.int(e.ActiveEdges)
		d.float(e.DualBound)
		d.float(e.Degree)
		d.int(int64(e.Machines))
		d.int(int64(e.Iterations))
		d.float(e.Weight)
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// goldenBimodal is a dense core plus a medium-degree fringe, which drives
// Algorithm 2 through more than one sampled phase (a homogeneous G(n,p)
// finishes in one).
func goldenBimodal(seed uint64) *graph.Graph {
	a := gen.GnpAvgDegree(seed, 1000, 400)
	fringe := gen.GnpAvgDegree(seed+1, 2000, 40)
	b := graph.NewBuilder(3000)
	for e := 0; e < a.NumEdges(); e++ {
		b.AddEdge(a.Edge(graph.EdgeID(e)))
	}
	for e := 0; e < fringe.NumEdges(); e++ {
		u, v := fringe.Edge(graph.EdgeID(e))
		b.AddEdge(u+1000, v+1000)
	}
	return gen.ApplyWeights(b.MustBuild(), seed, gen.UniformRange{Lo: 1, Hi: 100})
}

// withHub joins vertex 0 of g to every other vertex and gives it weight 0.5,
// below every other weight. Under uniform initialization the hub is the only
// vertex that freezes in phase 0, so the final phase receives a residual
// instance that lacks only the hub's edges.
func withHub(g *graph.Graph) *graph.Graph {
	n := g.NumVertices()
	b := graph.NewBuilder(n).SetWeights(g.Weights()).SetWeight(0, 0.5)
	for e := 0; e < g.NumEdges(); e++ {
		b.AddEdge(g.Edge(graph.EdgeID(e)))
	}
	for v := 1; v < n; v++ {
		b.AddEdge(0, graph.Vertex(v))
	}
	return b.MustBuild()
}

// registryDigest solves g with a registered solver and fingerprints the
// outcome and its event stream.
func registryDigest(t *testing.T, algo string, g *graph.Graph, cfg solver.Config) string {
	t.Helper()
	reg, ok := solver.Lookup(algo)
	if !ok {
		t.Fatalf("%s not registered", algo)
	}
	rec := &eventRecorder{}
	cfg.Observer = rec
	out, err := reg.Solver.Solve(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	d := newDigester()
	d.solve(out.Cover, out.Duals, out.Rounds, out.Phases, rec.events)
	return d.sum()
}

// pipelineDigest solves g through the facade with reduction on and
// fingerprints the lifted solution and the reduction counts (the reduce time
// is left out: it is a measurement, not an output). It then solves g twice
// more through one shared Kernel, which the first of those fills and the
// second takes, and requires both to give the same digest.
func pipelineDigest(t *testing.T, algo string, g *graph.Graph, seed uint64) string {
	t.Helper()
	digest := pipelineSolveDigest(t, algo, g, seed, nil, false)
	var k mwvc.Kernel
	for i, run := range []string{"filling", "taking"} {
		if d := pipelineSolveDigest(t, algo, g, seed, &k, i == 1); d != digest {
			t.Errorf("%s seed %d: digest %s %s a Kernel, %s without", algo, seed, d, run, digest)
		}
	}
	return digest
}

// pipelineSolveDigest is one solve of pipelineDigest, through k when k is
// non-nil. A solve that takes the stored kernel (took) must report
// ReduceNS 0, and any other the time it spent reducing.
func pipelineSolveDigest(t *testing.T, algo string, g *graph.Graph, seed uint64, k *mwvc.Kernel, took bool) string {
	t.Helper()
	opts := []mwvc.Option{mwvc.WithAlgorithm(mwvc.Algorithm(algo)), mwvc.WithEpsilon(0.1), mwvc.WithSeed(seed)}
	if k != nil {
		opts = append(opts, mwvc.WithKernel(k))
	}
	sol, err := mwvc.Solve(context.Background(), g, opts...)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	if (sol.Reduction.ReduceNS == 0) != took {
		t.Errorf("%s seed %d: ReduceNS %d; want 0 exactly when the solve takes the stored kernel", algo, seed, sol.Reduction.ReduceNS)
	}
	d := newDigester()
	d.solve(sol.Cover, nil, sol.Rounds, sol.Phases, nil)
	d.float(sol.Weight)
	d.float(sol.Bound)
	r := sol.Reduction
	for _, c := range []int{r.OriginalVertices, r.OriginalEdges, r.KernelVertices, r.KernelEdges,
		r.Isolated, r.Pendant, r.Domination, r.NeighborhoodWeight, r.ForcedVertices} {
		d.int(int64(c))
	}
	d.float(r.ForcedWeight)
	return d.sum()
}

// splitDigest runs compress.Run on g with the given gather budget and
// fingerprints the raw result together with the gathered schedule's
// measurements, so the split and fallback paths of the memory precheck are
// pinned.
func splitDigest(t *testing.T, g *graph.Graph, seed uint64, gatherWords int64) string {
	t.Helper()
	rec := &eventRecorder{}
	p := compress.DefaultParams(0.1, seed)
	p.MemoryWords = func(int) int64 { return 60000 }
	p.GatherWords = func(int) int64 { return gatherWords }
	p.Observer = rec
	res, err := compress.Run(context.Background(), g, p)
	if err != nil {
		t.Fatalf("split gather %d: %v", gatherWords, err)
	}
	d := newDigester()
	d.solve(res.Cover, res.X, res.Rounds, res.Phases, rec.events)
	gs := res.GatherStats
	if gs.Fallback {
		d.int(1)
	} else {
		d.int(0)
	}
	d.int(int64(gs.Splits))
	for i, k := range gs.LocalRounds {
		d.int(int64(k))
		d.int(int64(gs.Groups[i]))
	}
	return d.sum()
}

// coreDigest runs core.Run directly, so the ablation switches and the
// coupling capture are reachable, and fingerprints the raw result. An
// ablation may legitimately fail (a stalled run can leave a final instance
// too large for one machine); then the error text and the events before it
// are the fingerprint.
func coreDigest(g *graph.Graph, p core.Params) string {
	rec := &eventRecorder{}
	p.Observer = rec
	res, err := core.Run(context.Background(), g, p)
	d := newDigester()
	if err != nil {
		d.h.Write([]byte(err.Error()))
		d.solve(nil, nil, 0, 0, rec.events)
		return d.sum()
	}
	d.solve(res.Cover, res.X, res.Rounds, res.Phases, rec.events)
	for _, cp := range res.Coupling {
		d.int(int64(cp.Phase))
		d.int(int64(cp.Machines))
		d.int(int64(cp.Iterations))
		for i, v := range cp.High {
			d.int(int64(v))
			d.float(cp.ResidualWeight[i])
			d.int(int64(cp.MachineOf[i]))
			d.int(int64(cp.FreezeIter[i]))
		}
		for i, e := range cp.Edges {
			d.int(int64(e[0]))
			d.int(int64(e[1]))
			d.float(cp.X0[i])
		}
	}
	return d.sum()
}

func TestGoldenDigests(t *testing.T) {
	got := map[string]string{}
	algos := []string{"mpc", "mpc-compress"}
	type family struct {
		name, gen string
		n         int
		d         float64
		weights   string
	}
	var fams []family
	for _, f := range compressFamilies {
		fams = append(fams, family{"compress/" + f.name, f.gen, f.n, f.d, f.weights})
	}
	for _, f := range diffFamilies {
		fams = append(fams, family{"diff/" + f.name, f.gen, f.n, f.d, f.weights})
	}
	for _, f := range fams {
		seeds, solvers := diffSeeds, []string{"mpc", "mpc-compress", "centralized", "local-uniform", "pdfast", "bye", "greedy", "congested-clique"}
		if f.name[:4] != "diff" {
			seeds, solvers = compressSeeds, algos
		}
		for _, seed := range seeds {
			g, err := cli.BuildGraph(f.gen, f.n, f.d, f.weights, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range solvers {
				name := f.name + "/" + string(rune('0'+seed)) + "/" + algo
				got[name] = registryDigest(t, algo, g, solver.Config{Epsilon: 0.1, Seed: seed})
			}
		}
	}

	for _, f := range diffFamilies {
		for _, seed := range diffSeeds {
			g, err := cli.BuildGraph(f.gen, f.n, f.d, f.weights, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range []string{"mpc", "pdfast"} {
				got["pipeline/"+f.name+"/"+string(rune('0'+seed))+"/"+algo] = pipelineDigest(t, algo, g, seed)
			}
		}
	}

	bimodal := goldenBimodal(10)
	paper, err := cli.BuildGraph("gnp", 800, 24, "uniform", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range algos {
		got["bimodal/10/"+algo] = registryDigest(t, algo, bimodal, solver.Config{Epsilon: 0.1, Seed: 1})
		got["paper/gnp-uniform/1/"+algo] = registryDigest(t, algo, paper, solver.Config{Epsilon: 0.1, Seed: 1, PaperConstants: true})
	}

	ablations := []struct {
		name   string
		mutate func(*core.Params)
	}{
		{"disable-bias", func(p *core.Params) { p.BiasCoefficient = 0 }},
		{"disable-inactive-split", func(p *core.Params) { p.DisableInactiveSplit = true }},
		{"fixed-thresholds", func(p *core.Params) { p.FixedThresholds = true }},
		{"uniform-init", func(p *core.Params) { p.UniformInit = true }},
		{"collect-coupling", func(p *core.Params) { p.CollectCoupling = true }},
	}
	for _, a := range ablations {
		for _, g := range []struct {
			name string
			g    *graph.Graph
		}{{"gnp-uniform", paper}, {"bimodal", bimodal}} {
			p := core.ParamsPractical(0.1, 1)
			a.mutate(&p)
			got["core/"+a.name+"/"+g.name] = coreDigest(g.g, p)
		}
	}
	// The hub case is the one uniform-init run whose final phase starts from
	// a partial residual instance; the larger memory budget lets that
	// instance fit the final gather.
	hubParams := core.ParamsPractical(0.1, 1)
	hubParams.UniformInit = true
	hubParams.MemoryWords = func(int) int64 { return 1 << 24 }
	got["core/uniform-init-hub/bimodal"] = coreDigest(withHub(bimodal), hubParams)

	// The split cases are the only ones whose gathered groups outgrow the
	// budget: at 2000 words the partition is doubled and redrawn (seed 1
	// splits in both phases), and at 1 word every phase runs out of splits
	// and falls back to the native schedule.
	for _, seed := range []uint64{1, 2} {
		got["split/bimodal/"+string(rune('0'+seed))+"/gather-2000"] = splitDigest(t, bimodal, seed, 2000)
	}
	got["split/bimodal/1/gather-1"] = splitDigest(t, bimodal, 1, 1)

	if os.Getenv("MWVC_GOLDEN_DENSE") != "" {
		for seed := uint64(1); seed <= 3; seed++ {
			g := gen.ApplyWeights(gen.GnpAvgDegree(seed, 8000, 256), seed, gen.UniformRange{Lo: 1, Hi: 100})
			for _, algo := range algos {
				name := "dense/" + string(rune('0'+seed)) + "/" + algo
				got[name] = registryDigest(t, algo, g, solver.Config{Epsilon: 0.1, Seed: seed})
			}
			if seed == 1 {
				got["pipeline/dense/1/mpc"] = pipelineDigest(t, "mpc", g, seed)
			}
		}
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		digest := got[name]
		if want, ok := goldenDigests[name]; !ok {
			t.Errorf("%q: %q, // no recorded digest", name, digest)
		} else if want != digest {
			t.Errorf("%s: digest %s, want %s", name, digest, want)
		}
	}
}
