package core

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// constThreshold returns a threshold function fixed at th for all (v, t).
func constThreshold(th float64) func(graph.Vertex, int) float64 {
	return func(graph.Vertex, int) float64 { return th }
}

// simRun runs Line 2g on c as a machine of a phase with the given machine
// and iteration counts, ε = 0.1 and bias b_t = biasCoeff·m^{−0.2}·biasGrowth^t,
// and returns the freeze iterations.
func simRun(t *testing.T, c *class, machines, iters int, biasCoeff, biasGrowth float64, threshold func(graph.Vertex, int) float64) []int {
	t.Helper()
	bias := biasSchedule(nil, biasCoeff, biasGrowth, machines, iters)
	out, err := c.run(machines, iters, 0.1, bias, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLocalSimEmptyInstance(t *testing.T) {
	out := simRun(t, newClass(nil, nil, nil, nil), 4, 3, 0, 1, constThreshold(0.7))
	if len(out) != 0 {
		t.Fatal("nonempty result for empty instance")
	}
}

func TestLocalSimImmediateFreeze(t *testing.T) {
	// m·x0 = 4·0.5 = 2 ≥ 0.7·w for w=1: both endpoints freeze at t=0.
	c := newClass([]graph.Vertex{10, 11}, []float64{1, 1}, [][2]int32{{0, 1}}, []float64{0.5})
	out := simRun(t, c, 4, 3, 0, 1, constThreshold(0.7))
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("freeze iterations %v, want [0 0]", out)
	}
}

func TestLocalSimGrowthThenFreeze(t *testing.T) {
	// m=1 machine: estimate = x exactly. x0 = 0.5, threshold 0.7·1.
	// x grows by 1/0.9 per iteration: crosses 0.7 at t=4
	// (0.5·1.111⁴ = 0.762).
	c := newClass([]graph.Vertex{5, 6}, []float64{1, 1}, [][2]int32{{0, 1}}, []float64{0.5})
	out := simRun(t, c, 1, 10, 0, 1, constThreshold(0.7))
	if out[0] != 4 || out[1] != 4 {
		t.Fatalf("freeze iterations %v, want [4 4]", out)
	}
}

func TestLocalSimFrozenEdgesStopGrowing(t *testing.T) {
	// Path a–b–c. b has two incident edges; a freezes first (tiny weight:
	// 0.05·(1/0.9)^t ≥ 0.7·0.1 first holds at t=4), freezing edge (a,b) at
	// its then-current value. c has a huge weight and never freezes; b's y
	// afterwards only grows through edge (b,c).
	c := newClass([]graph.Vertex{1, 2, 3}, []float64{0.1, 10, 1000},
		[][2]int32{{0, 1}, {1, 2}}, []float64{0.05, 0.05})
	out := simRun(t, c, 1, 30, 0, 1, constThreshold(0.7))
	if out[0] != 4 {
		t.Fatalf("cheap vertex froze at %d, want 4", out[0])
	}
	if out[2] != -1 {
		t.Fatalf("huge vertex froze at %d", out[2])
	}
	// b would need y ≥ 7; its frozen edge contributes 0.05 forever and the
	// active one at most 0.05·(1/0.9)^30 ≈ 1.2 — so b must stay active.
	if out[1] != -1 {
		t.Fatalf("middle vertex froze at %d, want never", out[1])
	}
}

func TestLocalSimBiasAloneCanFreeze(t *testing.T) {
	// No edges; the bias term alone crosses the threshold when
	// biasCoeff·m^{-0.2}·w ≥ th·w, i.e. biasCoeff ≥ th·m^{0.2}.
	c := newClass([]graph.Vertex{9}, []float64{2}, nil, nil)
	m := 4
	needed := 0.7 * math.Pow(float64(m), 0.2)
	out := simRun(t, c, m, 2, needed+0.01, 1, constThreshold(0.7))
	if out[0] != 0 {
		t.Fatalf("bias did not freeze the isolated vertex: %v", out)
	}
	out = simRun(t, c, m, 2, needed-0.01, 1, constThreshold(0.7))
	if out[0] != -1 {
		t.Fatalf("sub-threshold bias froze the vertex: %v", out)
	}
}

func TestLocalSimBiasGrowthCompounds(t *testing.T) {
	// Bias below threshold at t=0, above at t=2 thanks to growth 15:
	// bias(t) = c·m^{-0.2}·15^t.
	cl := newClass([]graph.Vertex{9}, []float64{1}, nil, nil)
	m := 4
	c := 0.7 * math.Pow(float64(m), 0.2) / 100 // bias(0) = th/100
	out := simRun(t, cl, m, 5, c, 15, constThreshold(0.7))
	// 15^2 = 225 ≥ 100 ⇒ freeze at t=2.
	if out[0] != 2 {
		t.Fatalf("freeze at %v, want 2", out[0])
	}
}

func TestLocalSimSimultaneousFreezeConsistency(t *testing.T) {
	// A triangle of identical vertices: all three freeze at the same
	// iteration (symmetric state, same threshold).
	c := newClass([]graph.Vertex{1, 2, 3}, []float64{1, 1, 1},
		[][2]int32{{0, 1}, {1, 2}, {0, 2}}, []float64{0.2, 0.2, 0.2})
	out := simRun(t, c, 1, 10, 0, 1, constThreshold(0.7))
	if out[0] != out[1] || out[1] != out[2] {
		t.Fatalf("symmetric vertices froze at different times: %v", out)
	}
	if out[0] < 0 {
		t.Fatal("triangle never froze")
	}
}

func TestLocalSimWords(t *testing.T) {
	c := newClass([]graph.Vertex{1, 2, 3}, []float64{1, 1, 1}, [][2]int32{{0, 1}}, []float64{0.1})
	if w := c.Words(); w != 3+6 {
		t.Fatalf("words = %d, want 9", w)
	}
}
