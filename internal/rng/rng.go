// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Simulation results must be exactly reproducible for a given configuration
// and seed: tests, benchmarks, and the experiment harness all rely on this.
// We therefore avoid math/rand's global state and implement a SplitMix64
// seeder plus an xoshiro256** generator, both from public-domain reference
// algorithms by Blackman and Vigna.
package rng

import "math"

// SplitMix64 advances the given state and returns the next 64-bit output.
// It is used to derive independent seeds for child generators.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator.
// The zero value is not usable; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, as recommended by
// the xoshiro authors. Distinct seeds yield independent-looking streams.
func New(seed uint64) *Rand {
	var r Rand
	st := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&st)
	}
	// Avoid the all-zero state, which is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// State returns the generator's internal state, for checkpointing.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state, restoring a
// checkpoint taken with State.
func (r *Rand) SetState(s [4]uint64) { r.s = s }

// Child derives a new independent generator from this one. It is used to
// give each static instruction / branch / thread its own stream so that
// changing one component's consumption does not perturb the others.
func (r *Rand) Child() *Rand {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns the next 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. It draws nothing when p <= 0 or
// p >= 1.
func (r *Rand) Bool(p float64) bool {
	return p >= 1 || !(p <= 0) && r.Float64() < p
}

// maxGeometric caps Geometric's result; practically unreachable.
const maxGeometric = 1 << 20

// Geometric returns a sample from a geometric distribution with mean m
// (support {1, 2, ...}). Used for basic-block sizes and dependence
// distances. m must be >= 1; values are clamped to at least 1.
//
// It returns, draw for draw, what counting failed trials of Bool(1/m)
// returns. Float64() < p holds exactly when the top 53 bits of the draw
// are below p·2^53, a product that is exact, so each trial compares
// integers, with the generator state kept in locals.
func (r *Rand) Geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	// For a geometric distribution on {1,2,...} with success prob p,
	// mean = 1/p.
	p := 1.0 / m
	n := 1
	if !(p > 0) { // m is +Inf or NaN: Bool's own edge cases apply
		for n < maxGeometric && !r.Bool(p) {
			n++
		}
		return n
	}
	limit := uint64(math.Ceil(p * (1 << 53)))
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for n < maxGeometric {
		// One step of Uint64.
		x := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		if x>>11 < limit {
			break
		}
		n++
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return n
}

// Pick returns an index in [0, len(weights)) with probability proportional
// to weights[i]. Zero or negative total weight panics.
func (r *Rand) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: Pick with non-positive total weight")
	}
	x := r.Float64() * total
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
