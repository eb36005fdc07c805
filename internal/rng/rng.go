// Package rng provides the deterministic pseudo-random number generator
// used by the synthetic workload generator and the tests.
//
// The simulator must be bit-for-bit reproducible across runs and Go
// releases, so it uses a fixed xorshift* generator instead of math/rand,
// whose stream is not guaranteed stable across versions.
package rng

import "math"

// Source is a deterministic xorshift1024*-style generator reduced to the
// common 64-bit xorshift* variant.  The zero value is not valid; use New.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.  A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func New(seed uint64) *Source {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	s := &Source{state: seed}
	// Scramble the low-entropy seeds users tend to pass (0, 1, 2, ...).
	for i := 0; i < 4; i++ {
		s.Uint64()
	}
	return s
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n).  It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n).  It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return s.Uint64() % n
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Geometric returns a sample from a geometric distribution with mean m
// (support 1, 2, 3, ...).  Used for register dependency distances.
func (s *Source) Geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	p := 1.0 / m
	u := s.Float64()
	// Inverse-CDF sampling; clamp the tail so pathological u values cannot
	// produce unbounded distances.
	v := int(math.Ceil(math.Log(1-u) / math.Log(1-p))) // >= 1 for u in (0,1)
	if v < 1 {
		v = 1
	}
	if v > int(8*m)+8 {
		v = int(8*m) + 8
	}
	return v
}

// GeometricSampler draws from the geometric distribution of one mean
// with its constants computed once: Draw(s) returns what s.Geometric(m)
// would and consumes the same draws from s (none when m <= 1).
type GeometricSampler struct {
	logQ  float64 // math.Log(1 - 1/m)
	clamp int     // the tail clamp, int(8*m) + 8
	one   bool    // m <= 1: every draw is 1
}

// NewGeometricSampler prepares draws with mean m.
func NewGeometricSampler(m float64) GeometricSampler {
	if m <= 1 {
		return GeometricSampler{one: true}
	}
	return GeometricSampler{logQ: math.Log(1 - 1.0/m), clamp: int(8*m) + 8}
}

// Draw returns the next sample, drawn from s.
func (g GeometricSampler) Draw(s *Source) int {
	if g.one {
		return 1
	}
	v := int(math.Ceil(math.Log(1-s.Float64()) / g.logQ))
	return min(max(v, 1), g.clamp)
}

// Zipf draws a value in [0, n) with a Zipf-like distribution of exponent
// theta: low indices are drawn much more often than high ones.  It uses a
// simple inverse-power transform, which is cheap and deterministic (a
// faithful Zipf sampler is unnecessary for workload synthesis).
func (s *Source) Zipf(n int, theta float64) int {
	if n <= 1 {
		return 0
	}
	u := s.Float64()
	// Map u in [0,1) through u^k so that mass concentrates near zero.
	k := 1.0 + theta*3.0
	v := int(math.Pow(u, k) * float64(n))
	if v >= n {
		v = n - 1
	}
	return v
}

// Split derives a new independent Source from this one.  The derived
// stream is decorrelated by a fixed odd multiplier.
func (s *Source) Split() *Source {
	return New(s.Uint64()*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
}
