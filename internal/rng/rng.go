// Package rng provides deterministic, splittable pseudo-random number
// generation for the per-node "coins" used by the distributed algorithms.
//
// Every node of the simulated network owns an independent stream derived from
// a single experiment seed and the node's identifier, so that (a) runs are
// exactly reproducible given the seed, and (b) the streams of different nodes
// are statistically independent, matching the model assumption that nodes
// flip private coins.
//
// The generator is SplitMix64 (Steele, Lea, Vigna), a small, fast, well-mixed
// 64-bit generator that is trivial to split deterministically.
package rng

import "math"

// Source is a deterministic 64-bit pseudo-random stream. The zero value is a
// valid stream seeded with 0; prefer New or Split for explicit seeding.
type Source struct {
	state uint64
}

// New returns a Source seeded with the given seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child stream from a parent seed and a stream
// index (typically the node ID). The derivation mixes both inputs through the
// SplitMix64 finalizer so that nearby (seed, index) pairs produce unrelated
// streams.
func Split(seed uint64, index uint64) *Source {
	s := &Source{}
	s.ResetSplit(seed, index)
	return s
}

// ResetSplit rewinds s in place to the beginning of the stream that
// Split(seed, index) produces, without allocating. The CONGEST engine uses
// it to re-seed their pooled per-node sources when a network is reset for a
// fresh run.
func (s *Source) ResetSplit(seed uint64, index uint64) {
	s.state = mix64(seed) ^ mix64(index*0x9E3779B97F4A7C15+0xD1B54A32D192ED03)
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix64(s.state)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation would be overkill here;
	// simple rejection keeps the distribution exactly uniform.
	bound := uint64(n)
	limit := (math.MaxUint64 / bound) * bound
	for {
		v := s.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the Fisher-Yates
// algorithm and the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// mix64 is the SplitMix64 output finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}
