// Package rng provides the deterministic pseudo-random number generator and
// the service-time / inter-arrival distributions used by the workload
// generators. Every simulated component draws from its own seeded stream so
// that adding a component never perturbs another component's draws.
package rng

import "math"

// Rand is a splitmix64-based PRNG. It is small, fast, passes BigCrush for
// the purposes of workload generation, and — unlike math/rand's global
// state — is trivially reproducible per component.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func New(seed uint64) *Rand {
	// Avoid the all-zeros fixed point and decorrelate small seeds.
	return &Rand{state: seed*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D}
}

// Split returns a new independent generator derived from r's stream. Use it
// to give each simulated component its own stream.
func (r *Rand) Split() *Rand { return New(r.Uint64()) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed float64 with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Bernoulli reports true with probability p.
func (r *Rand) Bernoulli(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
