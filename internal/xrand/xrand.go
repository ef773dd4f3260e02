// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// Every experiment in the paper averages several trials, each with its own
// random seed for both graph structure and edge weights (§IV-C). To make
// those trials reproducible across machines and Go versions, all randomness
// in this module flows through xrand rather than math/rand: the sequences
// below are fully specified by their seed and will never change.
//
// Two generators are provided:
//
//   - SplitMix64: a tiny 64-bit state generator, used for seeding and for
//     cheap per-worker streams.
//   - Xoshiro256: xoshiro256** by Blackman and Vigna, the main generator.
package xrand

import (
	"math"
	"math/bits"
)

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. It has a
// single 64-bit word of state and passes BigCrush. Its primary use here is
// expanding one user seed into many independent stream seeds.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. The zero value is not valid; construct
// with New. Rand is not safe for concurrent use; give each goroutine its own
// stream via Split or NewStream.
type Rand struct {
	s [4]uint64
}

// New returns a Rand deterministically seeded from seed. The 256-bit state
// is expanded from the seed with SplitMix64, as recommended by the xoshiro
// authors.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	r := &Rand{}
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// xoshiro's state must not be all zero; SplitMix64 cannot produce four
	// consecutive zeros, so no further check is needed.
	return r
}

// NewStream returns the stream-th independent generator derived from seed.
// Streams with distinct indices are statistically independent, which lets
// each PE or each trial own a private generator without coordination.
func NewStream(seed, stream uint64) *Rand {
	sm := NewSplitMix64(seed)
	// Burn stream values so different streams start from decorrelated
	// SplitMix64 positions, then mix the stream index into the state.
	base := sm.Next()
	return New(base ^ (stream+1)*0x9e3779b97f4a7c15)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split returns a new Rand whose stream is derived from, and independent of,
// the receiver's. The receiver advances by one value.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's nearly-divisionless
// method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n // (2^64 - n) mod n: size of the biased region
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *Rand) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("xrand: Range called with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed value with rate lambda.
func (r *Rand) Exp(lambda float64) float64 {
	u := r.Float64()
	// Guard against log(0); Float64 can return exactly 0.
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -math.Log(u) / lambda
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
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

// Shuffle randomly permutes the first n elements using the provided swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
