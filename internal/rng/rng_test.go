package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %d != %d for identical seeds", i, x, y)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws across different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	c1again := New(7).Split(1)
	for i := 0; i < 100; i++ {
		v1, v2, v1b := c1.Uint64(), c2.Uint64(), c1again.Uint64()
		if v1 != v1b {
			t.Fatalf("draw %d: split stream not reproducible", i)
		}
		if v1 == v2 {
			t.Fatalf("draw %d: sibling splits collide", i)
		}
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a, b := New(9), New(9)
	_ = a.Split(5)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent state")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	s := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from %v", b, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(12)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid entry %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestMixOrderSensitive(t *testing.T) {
	if Mix(1, 2, 3) == Mix(1, 3, 2) {
		t.Fatal("Mix is not order sensitive")
	}
	if Mix(1, 2) == Mix(2, 2) {
		t.Fatal("Mix ignores seed")
	}
}

func TestUniformAtPure(t *testing.T) {
	a := UniformAt(99, 0.6, 0.8, 1, 2, 3)
	b := UniformAt(99, 0.6, 0.8, 1, 2, 3)
	if a != b {
		t.Fatalf("UniformAt not pure: %v != %v", a, b)
	}
	if a < 0.6 || a >= 0.8 {
		t.Fatalf("UniformAt out of range: %v", a)
	}
	if c := UniformAt(99, 0.6, 0.8, 1, 2, 4); c == a {
		t.Fatal("UniformAt ignores labels")
	}
}

func TestUniformAtCoversRange(t *testing.T) {
	lo, hi := -4.0, -2.0
	minSeen, maxSeen := math.Inf(1), math.Inf(-1)
	for i := uint64(0); i < 10000; i++ {
		v := UniformAt(7, lo, hi, i)
		if v < lo || v >= hi {
			t.Fatalf("UniformAt(%d) = %v out of [%v,%v)", i, v, lo, hi)
		}
		minSeen = math.Min(minSeen, v)
		maxSeen = math.Max(maxSeen, v)
	}
	if minSeen > lo+0.02 || maxSeen < hi-0.02 {
		t.Fatalf("UniformAt poorly spread: [%v, %v]", minSeen, maxSeen)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	const p, n = 0.3, 100000
	hits := 0
	for i := uint64(0); i < n; i++ {
		if Bernoulli(5, p, i) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-p) > 0.01 {
		t.Fatalf("Bernoulli frequency %v too far from %v", freq, p)
	}
}

func TestChooseAtBounds(t *testing.T) {
	for _, n := range []int{1, 2, 5, 97} {
		counts := make([]int, n)
		for i := uint64(0); i < 2000; i++ {
			v := ChooseAt(13, n, i)
			if v < 0 || v >= n {
				t.Fatalf("ChooseAt(%d) = %d out of range", n, v)
			}
			counts[v]++
		}
		if n > 1 {
			for b, c := range counts {
				if c == 2000 {
					t.Fatalf("ChooseAt(%d) always picks %d", n, b)
				}
			}
		}
	}
}

func TestShuffleDegenerate(t *testing.T) {
	s := New(14)
	s.Shuffle(0, func(i, j int) { t.Fatal("swap called for n=0") })
	s.Shuffle(1, func(i, j int) { t.Fatal("swap called for n=1") })
}

// Property: Mix is a pure function and collision-free over small structured
// label grids (a weak but fast sanity property).
func TestMixQuickPure(t *testing.T) {
	f := func(seed, a, b uint64) bool {
		return Mix(seed, a, b) == Mix(seed, a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixGridCollisions(t *testing.T) {
	seen := make(map[uint64][2]uint64)
	for a := uint64(0); a < 200; a++ {
		for b := uint64(0); b < 200; b++ {
			h := Mix(1, a, b)
			if prev, ok := seen[h]; ok {
				t.Fatalf("Mix collision: (%d,%d) and (%d,%d)", a, b, prev[0], prev[1])
			}
			seen[h] = [2]uint64{a, b}
		}
	}
}

func TestUint64nPowerOfTwoFastPath(t *testing.T) {
	s := New(15)
	for i := 0; i < 1000; i++ {
		if v := s.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkUniformAt(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += UniformAt(1, 0, 1, uint64(i), 7)
	}
	_ = sink
}
