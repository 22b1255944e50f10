// Package rng provides seeded, splittable random number generation and the
// distributions the workload models need (uniform, normal, lognormal,
// exponential, skewed task times). Every simulation in the repository is
// fully deterministic given its root seed.
package rng

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source. It wraps math/rand with the
// samplers used across the library and supports splitting into independent
// per-worker streams.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream. Child streams are stable:
// Split(i) of an identically seeded Source always yields the same stream.
// Typical use is one child per simulated worker.
func (s *Source) Split(i int) *Source {
	return New(Mix(s.seedMix(), i))
}

// Mix deterministically derives a child seed from (seed, i) with
// SplitMix-style mixing, keeping child seeds well separated even for
// consecutive i. Unlike Split it is a pure function: callers that must
// derive streams concurrently (e.g. per-worker model clones) can hold a
// base seed and Mix it without any shared mutable state.
func Mix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Int63 draws a raw non-negative 63-bit value, advancing the stream by one
// step. It is the seed-capture primitive behind clonable model noise.
func (s *Source) Int63() int64 { return s.r.Int63() }

// seedMix draws a raw value without disturbing distribution state more than
// one step; used only by Split.
func (s *Source) seedMix() int64 {
	return s.r.Int63()
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform int in [0,n). n must be positive.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Uniform returns a uniform value in [lo,hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Normal returns a normal sample with the given mean and standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// LogNormal returns a sample whose logarithm is Normal(mu, sigma). It is the
// canonical long-tailed distribution for video lengths and batch times.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// LogNormalFromMoments returns a lognormal sample with the given *arithmetic*
// mean and standard deviation, solving for (mu, sigma) internally. This lets
// workload models match the paper's reported moments directly (e.g. UCF101
// video lengths: mean 186, stddev 97.7).
func (s *Source) LogNormalFromMoments(mean, stddev float64) float64 {
	mu, sigma := LogNormalParams(mean, stddev)
	return s.LogNormal(mu, sigma)
}

// LogNormalParams converts an arithmetic mean/stddev into the (mu, sigma)
// parameters of the underlying normal distribution.
func LogNormalParams(mean, stddev float64) (mu, sigma float64) {
	if mean <= 0 {
		return 0, 0
	}
	v := stddev * stddev
	m2 := mean * mean
	sigma2 := math.Log(1 + v/m2)
	mu = math.Log(mean) - sigma2/2
	return mu, math.Sqrt(sigma2)
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.r.Float64() < p
}

// Choice returns a uniformly chosen index in [0,n) excluding `not`. n must
// be at least 2 when not is within range; used by AD-PSGD neighbor picking.
func (s *Source) Choice(n, not int) int {
	if not < 0 || not >= n {
		return s.Intn(n)
	}
	k := s.Intn(n - 1)
	if k >= not {
		k++
	}
	return k
}

// SampleDistinct returns k distinct uniform indices in [0,n). If k >= n all
// indices are returned (shuffled). Used by the controller's power-of-q
// probing.
func (s *Source) SampleDistinct(n, k int) []int {
	if k >= n {
		return s.Perm(n)
	}
	perm := s.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}
