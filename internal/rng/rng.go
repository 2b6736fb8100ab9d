// Package rng provides deterministic, splittable pseudo-random number
// streams for simulation experiments.
//
// Every experiment in this repository derives all of its randomness from a
// single root seed so that runs are exactly reproducible. Independent
// replicates and independent subsystems (topology placement, source
// selection, mobility, ...) each receive their own stream, split off the
// parent stream, so that adding randomness consumption to one subsystem does
// not perturb the values another subsystem observes.
//
// The generator is PCG-XSH-RR 64/32 (O'Neill, 2014) driven by a 64-bit LCG,
// with stream selection through the standard odd-increment mechanism.
// SplitMix64 is used to derive well-distributed state and increment values
// from user-provided seeds and labels.
package rng

import "math"

// Stream is a deterministic pseudo-random number generator. Streams are not
// safe for concurrent use; split one stream per goroutine instead.
type Stream struct {
	state uint64
	inc   uint64 // always odd
}

const (
	pcgMultiplier = 6364136223846793005
	splitmixGamma = 0x9E3779B97F4A7C15
)

// splitmix64 advances *s and returns the next SplitMix64 output. It is used
// only for seeding, never for user-visible variates.
func splitmix64(s *uint64) uint64 {
	*s += splitmixGamma
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed. Two streams built from the same
// seed produce identical sequences.
func New(seed uint64) *Stream {
	s := seed
	state := splitmix64(&s)
	inc := splitmix64(&s) | 1
	return &Stream{state: state, inc: inc}
}

// NewLabeled returns a stream derived from seed and a textual label. It is
// the root constructor used by experiments: the label keeps streams for
// different purposes ("topology", "source", ...) independent even when they
// share the numeric seed.
func NewLabeled(seed uint64, label string) *Stream {
	s := seed
	for i := 0; i < len(label); i++ {
		s = s ^ uint64(label[i])
		_ = splitmix64(&s)
	}
	state := splitmix64(&s)
	inc := splitmix64(&s) | 1
	return &Stream{state: state, inc: inc}
}

// SeedLabeled reseeds r in place exactly as NewLabeled(seed, label) would
// seed a fresh stream. It is the allocation-free path for per-worker
// workspaces that re-derive their replicate stream thousands of times.
func (r *Stream) SeedLabeled(seed uint64, label string) {
	s := seed
	for i := 0; i < len(label); i++ {
		s = s ^ uint64(label[i])
		_ = splitmix64(&s)
	}
	r.state = splitmix64(&s)
	r.inc = splitmix64(&s) | 1
}

// Split returns a new stream whose future output is statistically
// independent of the receiver's. The receiver advances by two steps.
func (r *Stream) Split() *Stream {
	child := &Stream{}
	r.SplitInto(child)
	return child
}

// SplitInto seeds dst as Split would seed a fresh child stream, without
// allocating. The receiver advances by two steps, exactly as with Split.
func (r *Stream) SplitInto(dst *Stream) {
	s := r.next64()
	dst.state = splitmix64(&s)
	dst.inc = splitmix64(&s) | 1
}

// next32 returns the next 32 bits from the PCG core.
func (r *Stream) next32() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// next64 returns 64 random bits.
func (r *Stream) next64() uint64 {
	hi := uint64(r.next32())
	lo := uint64(r.next32())
	return hi<<32 | lo
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Stream) Uint64() uint64 { return r.next64() }

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. Lemire's nearly-divisionless rejection method keeps the result
// unbiased.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	// Multiply-shift with rejection of the biased low region.
	threshold := (-bound) % bound
	for {
		v := r.next64()
		hi, lo := mul64(v, bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniformly distributed value in [0, 1) with 53 random
// bits of precision.
func (r *Stream) Float64() float64 {
	return float64(r.next64()>>11) / (1 << 53)
}

// Range returns a uniformly distributed value in [lo, hi).
func (r *Stream) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Stream) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Stream) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
