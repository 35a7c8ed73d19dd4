// Package rng provides deterministic, seedable random-number utilities used
// throughout the benchmark. Every stochastic component in the repository
// (dataset synthesis, resampling, randomized post-processing, error
// injection) draws from an explicit *RNG so that experiments reproduce
// bit-for-bit across runs.
package rng

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand.Rand with the distribution helpers the benchmark
// needs. It is NOT safe for concurrent use: concurrent jobs must never
// share an instance. A runner job that needs a generator derives its own
// private one from its job index with Derive.
type RNG struct {
	r *rand.Rand
}

// New returns a deterministic RNG seeded with seed.
func New(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Derive returns an RNG whose stream is a pure function of (seed, id) and
// statistically independent across ids: the pair is mixed through a
// splitmix64 finalizer before seeding, so adjacent ids (the common case —
// job indices 0..n-1 of one runner.Run call) do not yield correlated
// streams the way New(seed+id) would. It is the utility for per-job
// randomness under parallel execution: one Derive call per job index,
// never a shared instance across goroutines. (The current experiment
// drivers seed approaches through registry.Config instead and need no
// job-local generator.)
func Derive(seed, id int64) *RNG {
	z := uint64(seed) + (uint64(id)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return New(int64(z >> 1))
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// Bernoulli returns 1 with probability p and 0 otherwise.
func (g *RNG) Bernoulli(p float64) int {
	if g.r.Float64() < p {
		return 1
	}
	return 0
}

// Categorical samples an index from the (not necessarily normalized)
// non-negative weight vector w. A zero-sum weight vector yields index 0.
func (g *RNG) Categorical(w []float64) int {
	var total float64
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		return 0
	}
	u := g.r.Float64() * total
	var acc float64
	for i, v := range w {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

// Poisson samples from a Poisson distribution with rate lambda using
// Knuth's method (adequate for the small rates used in data synthesis).
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 { // numerical guard for extreme rates
			return k
		}
	}
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle permutes idx in place.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// SampleWeighted draws k indices (with replacement) from the weight vector
// w using an alias-free linear scan; suitable for the modest k used by the
// resampling pre-processors.
func (g *RNG) SampleWeighted(w []float64, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = g.Categorical(w)
	}
	return out
}

// SampleWithoutReplacement draws k distinct indices uniformly from [0,n).
// If k >= n, it returns a permutation of all n indices.
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	p := g.r.Perm(n)
	if k > n {
		k = n
	}
	return p[:k]
}
