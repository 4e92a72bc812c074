package solver

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"repro/internal/graph"
	"repro/internal/verify"
)

// pendantStar builds a >trivial instance the rules fully collapse: one cheap
// hub, many heavy leaves (unit hub weight, leaf weight 3).
func pendantStar(t *testing.T, leaves int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(leaves + 1)
	for l := 1; l <= leaves; l++ {
		b.SetWeight(graph.Vertex(l), 3)
		b.AddEdge(0, graph.Vertex(l))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// recordingSolver counts invocations and remembers the instance it saw.
type recordingSolver struct {
	calls int
	sawN  int
	out   *Outcome
	err   error
}

func (r *recordingSolver) Solve(ctx context.Context, g *graph.Graph, cfg Config) (*Outcome, error) {
	r.calls++
	r.sawN = g.NumVertices()
	if r.err != nil {
		return nil, r.err
	}
	if r.out != nil {
		return r.out, nil
	}
	return allCover(g), nil
}

func TestPipelineEmitsReduceEvents(t *testing.T) {
	g := pendantStar(t, 10)
	var kinds []EventKind
	var edges []int64
	cfg := Config{Observer: ObserverFunc(func(e Event) {
		kinds = append(kinds, e.Kind)
		edges = append(edges, e.ActiveEdges)
	})}
	rec := &recordingSolver{}
	res, err := Pipeline{Solver: rec, Reduce: true, Config: cfg}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != KindReduceStart || kinds[1] != KindReduceEnd {
		t.Fatalf("event kinds %v, want [reduce-start reduce-end]", kinds)
	}
	if edges[0] != 10 || edges[1] != 0 {
		t.Fatalf("event edge counts %v, want [10 0]", edges)
	}
	if rec.calls != 0 {
		t.Fatalf("solver ran %d times on a fully reduced instance, want 0", rec.calls)
	}
	if !res.Exact || res.Weight != 1 || res.CertifiedRatio != 1 {
		t.Fatalf("fully reduced star: exact=%v weight=%v ratio=%v, want true/1/1",
			res.Exact, res.Weight, res.CertifiedRatio)
	}
	if res.Reduction == nil || res.Reduction.Pendant == 0 || res.Reduction.ReduceNS <= 0 {
		t.Fatalf("reduction stats missing or incomplete: %+v", res.Reduction)
	}
}

// starPlusPath is a cheap hub with 20 heavy pendants (collapses) plus a
// disjoint irreducible path weighted 1-10-10-1 (cheap ends refuse the
// pendant rule, middle weights refuse neighborhood and domination), so its
// kernel is exactly the 4-vertex path.
func starPlusPath(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(25)
	b.SetWeight(0, 2)
	for l := 1; l <= 20; l++ {
		b.SetWeight(graph.Vertex(l), 100)
		b.AddEdge(0, graph.Vertex(l))
	}
	pathW := []float64{1, 10, 10, 1}
	for i, w := range pathW {
		b.SetWeight(graph.Vertex(21+i), w)
	}
	b.AddEdge(21, 22).AddEdge(22, 23).AddEdge(23, 24)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPipelineSolvesKernelNotOriginal(t *testing.T) {
	g := starPlusPath(t)
	rec := &recordingSolver{}
	res, err := Pipeline{Solver: rec, Reduce: true}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rec.calls != 1 || rec.sawN != 4 {
		t.Fatalf("solver saw n=%d (calls %d); want the 4-vertex kernel once", rec.sawN, rec.calls)
	}
	if ok, _ := verify.IsCover(g, res.Cover); !ok {
		t.Fatal("lifted cover does not cover the original")
	}
	if len(res.Cover) != 25 {
		t.Fatalf("cover length %d, want the original 25", len(res.Cover))
	}
}

// kernelWatcher is a Solver that keeps only a weak pointer to the instance
// it is handed.
type kernelWatcher struct{ kernel weak.Pointer[graph.Graph] }

func (k *kernelWatcher) Solve(_ context.Context, g *graph.Graph, _ Config) (*Outcome, error) {
	k.kernel = weak.Make(g)
	return allCover(g), nil
}

// TestPipelineResultDoesNotPinKernel holds a reduced solve's Result and
// requires the kernel graph to be collectable: the reduction stats the
// Result carries must not keep the whole reduce.Result (kernel and trace)
// alive in every returned or cached solution. A Kernel slot does keep it,
// until the slot itself is dropped.
func TestPipelineResultDoesNotPinKernel(t *testing.T) {
	w := &kernelWatcher{}
	res, err := Pipeline{Solver: w, Reduce: true}.Run(context.Background(), starPlusPath(t))
	if err != nil {
		t.Fatal(err)
	}
	if k := w.kernel.Value(); k == nil || k.NumVertices() != 4 {
		t.Fatal("the solver was not handed the 4-vertex kernel")
	}
	runtime.GC()
	if w.kernel.Value() != nil {
		t.Fatal("the returned Result keeps the kernel graph alive")
	}
	if res.Reduction == nil || res.Reduction.KernelVertices != 4 {
		t.Fatalf("reduction stats lost: %+v", res.Reduction)
	}
	runtime.KeepAlive(res)

	slot := new(Kernel)
	res, err = Pipeline{Solver: w, Reduce: true, Kernel: slot}.Run(context.Background(), starPlusPath(t))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if k := w.kernel.Value(); k == nil || k.NumVertices() != 4 {
		t.Fatal("the filled slot does not keep its kernel graph")
	}
	runtime.KeepAlive(slot)
	runtime.GC() // the slot is unreachable from here on
	if w.kernel.Value() != nil {
		t.Fatal("the kernel graph outlives its slot: the Result keeps it alive")
	}
	runtime.KeepAlive(res)
}

func TestPipelineWithoutReduceIsDirect(t *testing.T) {
	g := pendantStar(t, 10)
	var sawEvent bool
	rec := &recordingSolver{}
	res, err := Pipeline{Solver: rec, Reduce: false, Config: Config{
		Observer: ObserverFunc(func(Event) { sawEvent = true }),
	}}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rec.calls != 1 || rec.sawN != 11 {
		t.Fatalf("solver saw n=%d (calls %d), want the raw 11", rec.sawN, rec.calls)
	}
	if sawEvent {
		t.Fatal("reduce events emitted with reduction disabled")
	}
	if res.Reduction != nil {
		t.Fatal("reduction stats attached with reduction disabled")
	}
	// The solver returned no duals, so the verify stage certifies its cover
	// with the Bar-Yehuda–Even pass on the instance it solved: the raw g.
	_, x := verify.BarYehudaEven(g)
	if want := verify.DualValue(x); math.Float64bits(res.Bound) != math.Float64bits(want) {
		t.Fatalf("dual-free bound %v, want the Bar-Yehuda–Even value %v", res.Bound, want)
	}
	if math.Float64bits(res.CertifiedRatio) != math.Float64bits(res.Weight/res.Bound) {
		t.Fatalf("ratio %v, want %v/%v", res.CertifiedRatio, res.Weight, res.Bound)
	}
}

func TestPipelineRejectsInvalidLiftedCover(t *testing.T) {
	// The verify stage runs on the original graph: a solver returning a
	// non-cover must be caught. A 5-cycle with increasing weights resists
	// every rule, so the kernel is the original and an all-false "cover"
	// leaves every edge uncovered.
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.SetWeight(graph.Vertex(i), float64(2+i))
		b.AddEdge(graph.Vertex(i), graph.Vertex((i+1)%5))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	empty := &recordingSolver{out: &Outcome{Cover: make([]bool, 5)}}
	if _, err := (Pipeline{Solver: empty, Reduce: true}).Run(context.Background(), g); err == nil {
		t.Fatal("non-cover passed verification")
	}
	if empty.sawN != 5 {
		t.Fatalf("solver saw n=%d, want the irreducible 5-cycle", empty.sawN)
	}

	// With duals the certificate is the only cover check, so it must catch
	// the same non-cover and keep the internal-error prefix.
	withDuals := &recordingSolver{out: &Outcome{Cover: make([]bool, 5), Duals: make([]float64, 5)}}
	_, err = (Pipeline{Solver: withDuals, Reduce: true}).Run(context.Background(), g)
	if err == nil || !strings.HasPrefix(err.Error(), "solver: internal error:") {
		t.Fatalf("non-cover with duals: err %v, want a solver internal error", err)
	}
}

func TestPipelinePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := &recordingSolver{}
	if _, err := (Pipeline{Solver: rec, Reduce: true}).Run(ctx, pendantStar(t, 3)); err == nil {
		t.Fatal("pre-cancelled context accepted")
	}
	if rec.calls != 0 {
		t.Fatal("solver ran despite pre-cancelled context")
	}
}

// irreduciblePlusSlack builds an instance whose kernel is nontrivial and
// whose all-vertices solver cover leaves the improvement stage real work:
// an irreducible 5-cycle (increasing weights) — the rules keep it intact.
func irreducibleCycle(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.SetWeight(graph.Vertex(i), float64(2+i))
		b.AddEdge(graph.Vertex(i), graph.Vertex((i+1)%5))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPipelineImproveStage: with a budget set, the improvement stage runs on
// the kernel, the lifted cover weight drops below the unimproved solve, the
// dual-free result stays verified, and the event stream brackets strictly
// decreasing improve-step weights.
func TestPipelineImproveStage(t *testing.T) {
	g := irreducibleCycle(t)
	base, err := Pipeline{Solver: &recordingSolver{}, Reduce: true}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}

	var events []Event
	cfg := Config{
		ImproveBudget: time.Minute,
		Observer:      ObserverFunc(func(e Event) { events = append(events, e) }),
	}
	res, err := Pipeline{Solver: &recordingSolver{}, Reduce: true, Config: cfg}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := verify.IsCover(g, res.Cover); !ok {
		t.Fatal("improved lifted cover invalid on the original")
	}
	if res.Weight >= base.Weight {
		t.Fatalf("improvement did not reduce the all-vertices cover: %v >= %v", res.Weight, base.Weight)
	}
	if math.Float64bits(res.Bound) != math.Float64bits(base.Bound) {
		t.Fatalf("improvement moved the dual bound: %v vs %v", res.Bound, base.Bound)
	}
	if res.Improvement == nil || res.Improvement.Steps == 0 {
		t.Fatalf("improvement stats missing: %+v", res.Improvement)
	}
	if res.Improvement.WeightAfter >= res.Improvement.WeightBefore {
		t.Fatalf("stats claim no improvement: %+v", res.Improvement)
	}

	// Event stream: reduce-start, reduce-end, improve-start, steps..., improve-end.
	var improveKinds []EventKind
	var stepWeights []float64
	for _, e := range events {
		switch e.Kind {
		case KindImproveStart, KindImproveStep, KindImproveEnd:
			improveKinds = append(improveKinds, e.Kind)
			if e.Kind == KindImproveStep {
				stepWeights = append(stepWeights, e.Weight)
			}
		}
	}
	if len(improveKinds) < 3 || improveKinds[0] != KindImproveStart ||
		improveKinds[len(improveKinds)-1] != KindImproveEnd {
		t.Fatalf("improve event bracket wrong: %v", improveKinds)
	}
	if len(stepWeights) != res.Improvement.Steps {
		t.Fatalf("%d step events, stats say %d steps", len(stepWeights), res.Improvement.Steps)
	}
	for i := 1; i < len(stepWeights); i++ {
		if stepWeights[i] >= stepWeights[i-1] {
			t.Fatalf("step weights not strictly decreasing: %v", stepWeights)
		}
	}
	if last := events[len(events)-1]; last.Kind != KindImproveEnd ||
		math.Float64bits(last.Weight) != math.Float64bits(res.Improvement.WeightAfter) {
		t.Fatalf("improve-end weight %v, want %v", last.Weight, res.Improvement.WeightAfter)
	}
}

// TestPipelineImproveSkipsExact: an exact outcome bypasses the improvement
// stage entirely — no events, no stats.
func TestPipelineImproveSkipsExact(t *testing.T) {
	g := pendantStar(t, 10) // fully reduced: empty kernel, Exact outcome
	var sawImprove bool
	cfg := Config{
		ImproveBudget: time.Minute,
		Observer: ObserverFunc(func(e Event) {
			switch e.Kind {
			case KindImproveStart, KindImproveStep, KindImproveEnd:
				sawImprove = true
			}
		}),
	}
	rec := &recordingSolver{}
	res, err := Pipeline{Solver: rec, Reduce: true, Config: cfg}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("star did not reduce to an exact result")
	}
	if sawImprove || res.Improvement != nil {
		t.Fatal("improvement stage ran on an exact result")
	}
}

// TestPipelineZeroBudgetIdentical: ImproveBudget zero is the PR 5 pipeline,
// bit for bit — no stats, no events, same floats.
func TestPipelineZeroBudgetIdentical(t *testing.T) {
	g := irreducibleCycle(t)
	want, err := Pipeline{Solver: &recordingSolver{}, Reduce: true}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Pipeline{Solver: &recordingSolver{}, Reduce: true, Config: Config{ImproveBudget: 0}}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Improvement != nil {
		t.Fatal("zero budget attached improvement stats")
	}
	if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) ||
		math.Float64bits(got.Bound) != math.Float64bits(want.Bound) {
		t.Fatal("zero budget changed the result")
	}
	for v := range want.Cover {
		if got.Cover[v] != want.Cover[v] {
			t.Fatalf("cover bit %d differs", v)
		}
	}
}
