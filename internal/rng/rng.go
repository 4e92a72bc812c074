// Package rng provides small, fast, deterministic pseudo-random number
// generators with explicit splitting.
//
// The MPC simulation needs randomness that is (a) reproducible from a single
// seed, (b) independently addressable per machine, per phase, per vertex and
// per iteration, and (c) identical between the MPC run and the centralized
// run it is compared against (the coupling experiments of Lemma 4.6 depend on
// both algorithms drawing the *same* thresholds T_{v,t}). A splittable
// generator derived from splitmix64 provides all three: any (seed, label...)
// tuple maps to a stable stream, so the thresholds become a pure function of
// their coordinates rather than a side effect of evaluation order.
package rng

import "math/bits"

// splitmix64 is the canonical splitmix64 finalizer step. It is a bijection
// on uint64 with excellent avalanche behaviour, which makes it suitable both
// as a PRNG state-advance function and as a mixing/hashing primitive.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix hashes an arbitrary sequence of uint64 labels into a single uint64.
// It is the basis for all stream derivation: Mix(seed, labels...) is a
// stable, order-sensitive combination.
func Mix(seed uint64, labels ...uint64) uint64 {
	h := splitmix64(seed ^ 0x6a09e667f3bcc908)
	for _, l := range labels {
		h = splitmix64(h ^ l)
	}
	return h
}

// Source is a small deterministic PRNG (xoshiro256** seeded via splitmix64).
// The zero value is not useful; create Sources with New or Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var s Source
	s.reseed(seed)
	return &s
}

func (s *Source) reseed(seed uint64) {
	// Expand the 64-bit seed into 256 bits of state with splitmix64, per the
	// xoshiro authors' recommendation. splitmix64 is a bijection, so at least
	// one of the four words is nonzero for every seed.
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		return splitmix64(x - 0x9e3779b97f4a7c15)
	}
	s.s0, s.s1, s.s2, s.s3 = next(), next(), next(), next()
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1 // unreachable, but xoshiro must never be all-zero
	}
}

// Split derives an independent child Source labelled by labels. Children with
// different labels (or derived from different parents) produce independent
// streams; the parent is not advanced.
func (s *Source) Split(labels ...uint64) *Source {
	return New(Mix(s.s0^s.s2, append([]uint64{s.s1 ^ s.s3}, labels...)...))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	thresh := -n % n
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= thresh {
			return hi
		}
	}
}

// Perm returns a random permutation of [0, n) as a slice.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using swap, Fisher–Yates style.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// UniformAt returns a uniform float64 in [lo, hi) addressed purely by the
// label tuple: the same (seed, labels, lo, hi) always yields the same value,
// independent of any generator state. This is how the random thresholds
// T_{v,t} of the paper are realized, so that the MPC simulation and the
// centralized reference algorithm observe identical thresholds.
func UniformAt(seed uint64, lo, hi float64, labels ...uint64) float64 {
	u := float64(Mix(seed, labels...)>>11) / (1 << 53)
	return lo + (hi-lo)*u
}

// Bernoulli reports a coin flip with probability p addressed by the label
// tuple, again as a pure function of its arguments.
func Bernoulli(seed uint64, p float64, labels ...uint64) bool {
	u := float64(Mix(seed, labels...)>>11) / (1 << 53)
	return u < p
}

// ChooseAt returns a uniform integer in [0, n) addressed by the label tuple.
// It panics if n <= 0.
func ChooseAt(seed uint64, n int, labels ...uint64) int {
	if n <= 0 {
		panic("rng: ChooseAt called with n <= 0")
	}
	// 64-bit multiply-shift; bias is < 2^-53 for any practical n, and the
	// result remains a pure function of the labels, which is the property
	// the algorithm needs (exact uniformity is not load-bearing here).
	u := float64(Mix(seed, labels...)>>11) / (1 << 53)
	i := int(u * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}
