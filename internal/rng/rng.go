// Package rng provides a small deterministic, splittable pseudo-random
// number generator used by every stochastic component of the simulator.
//
// The generator is a SplitMix64 core wrapped in convenience samplers. Its
// two key properties for this project are:
//
//   - Determinism: the same master seed always yields byte-identical
//     datasets, so experiments, tests and benchmarks are reproducible.
//   - Splittability: independent streams can be derived for (entity, day)
//     pairs without sharing state, so simulating users or cells in any
//     order — or in parallel — produces identical results.
//
// math/rand is deliberately avoided: its global state makes per-entity
// reproducibility awkward and its algorithm differs across Go versions.
package rng

import "math"

// Source is a deterministic SplitMix64 stream. The zero value is a valid
// stream seeded with 0.
type Source struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// golden gamma constant of SplitMix64.
const gamma = 0x9E3779B97F4A7C15

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Split derives an independent stream labelled by key. Streams derived
// with distinct keys from the same parent are statistically independent;
// the parent is not advanced.
func (s *Source) Split(key uint64) *Source {
	// Mix the parent state with the key through one extra SplitMix64
	// finalisation so that adjacent keys land far apart.
	return &Source{state: splitState(s.state, key)}
}

// splitState is the state derivation behind Split, as a pure function.
func splitState(state, key uint64) uint64 {
	z := state ^ (key+1)*gamma
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Stream2 returns the (a, b)-labelled stream of seed as a value — the
// sequence is identical to New(seed).Split(a).Split(b), but nothing
// escapes to the heap, so per-entity stream setup in hot loops is
// allocation-free (take the address of the returned value for the
// sampler methods).
func Stream2(seed, a, b uint64) Source {
	return Source{state: splitState(splitState(seed, a), b)}
}

// Float64 returns a uniform sample in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// Range returns a uniform sample in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// IntRange returns a uniform sample in [lo, hi] (inclusive bounds). It
// panics if hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Norm returns a sample from the standard normal distribution using the
// Box–Muller transform.
func (s *Source) Norm() float64 {
	// Guard against log(0).
	u1 := 1 - s.Float64()
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormRange returns mean + stddev*Norm().
func (s *Source) NormRange(mean, stddev float64) float64 {
	return mean + stddev*s.Norm()
}

// Exp returns an exponentially distributed sample with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return -mean * math.Log(1-s.Float64())
}

// Poisson returns a Poisson-distributed sample with the given mean, using
// Knuth's method for small means and a normal approximation for large
// ones.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation, adequate for KPI count generation.
		n := int(math.Round(s.NormRange(mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Pick returns a uniformly chosen index weighted by weights. Zero or
// negative weights are treated as zero. If all weights are zero it returns
// 0. It panics on an empty slice.
func (s *Source) Pick(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Pick with empty weights")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// Hash64 mixes an arbitrary uint64 into a well-distributed uint64; it is
// the stateless SplitMix64 finaliser, handy for deriving stable per-entity
// seeds from IDs.
func Hash64(x uint64) uint64 {
	z := x + gamma
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
