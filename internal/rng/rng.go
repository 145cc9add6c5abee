// Package rng provides a small, deterministic pseudo-random number
// generator for the Monte-Carlo machinery. Every experiment in this
// repository is seeded explicitly so that all paper tables regenerate
// bit-for-bit; the generator is xoshiro256++, which is fast, has a 256-bit
// state, and passes BigCrush.
package rng

import "math"

// Rand is a xoshiro256++ generator with Gaussian output via the polar
// Box–Muller method. The zero value is not usable; construct with New.
type Rand struct {
	s     [4]uint64
	gauss float64 // cached second Box–Muller variate
	has   bool
}

// New returns a generator seeded from the given value via SplitMix64, which
// guarantees a well-mixed nonzero state for any seed, including 0.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform variate in (0, 1), never exactly 0, which
// keeps it safe as input to inverse-CDF transforms.
func (r *Rand) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// NormFloat64 returns a standard normal variate (mean 0, variance 1) using
// the polar Box–Muller method.
func (r *Rand) NormFloat64() float64 {
	if r.has {
		r.has = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.has = true
		return u * f
	}
}

// NormVector fills dst with independent standard normal variates and
// returns it; this is one sample of the paper's normalized ŝ ~ N(0, I).
func (r *Rand) NormVector(dst []float64) []float64 {
	for i := range dst {
		dst[i] = r.NormFloat64()
	}
	return dst
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
