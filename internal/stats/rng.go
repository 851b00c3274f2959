// Package stats provides the statistical substrate shared by every
// experimental methodology in this repository: deterministic random number
// generation, Poisson counting statistics with exact confidence intervals,
// Wilson proportions, and the signed-ratio helpers of Figure 6.
//
// All stochastic components in the simulator, the fault injectors, and the
// beam campaigns draw exclusively from *stats.RNG so that every experiment
// is reproducible from a seed.
package stats

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random source (PCG) used by every
// stochastic component in the repository. It wraps math/rand/v2 with the
// distributions the reliability campaigns need.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a deterministic generator seeded with the two given words.
func NewRNG(seed1, seed2 uint64) *RNG {
	return &RNG{src: rand.New(rand.NewPCG(seed1, seed2))}
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent state and the label, so campaigns
// can fan out work without correlating streams.
func (r *RNG) Split(label uint64) *RNG {
	s1 := r.src.Uint64() ^ (label * 0x9e3779b97f4a7c15)
	s2 := r.src.Uint64() ^ (label*0xbf58476d1ce4e5b9 + 1)
	return NewRNG(s1, s2)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Uint32 returns a uniformly distributed 32-bit value.
func (r *RNG) Uint32() uint32 { return r.src.Uint32() }

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Int64N returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Int64N(n int64) int64 { return r.src.Int64N(n) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.src.Float64() < p }

// Poisson samples a Poisson-distributed count with the given mean.
// For small means it uses Knuth's product method; for large means it uses
// the PTRS transformed-rejection method of Hörmann (1993), which is exact
// and O(1).
func (r *RNG) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		return r.poissonKnuth(mean)
	default:
		return r.poissonPTRS(mean)
	}
}

func (r *RNG) poissonKnuth(mean float64) int {
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// poissonPTRS implements Hörmann's transformed rejection with squeeze.
func (r *RNG) poissonPTRS(mean float64) int {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lhs := math.Log(v * invAlpha / (a/(us*us) + b))
		rhs := -mean + k*math.Log(mean) - logGamma(k+1)
		if lhs <= rhs {
			return int(k)
		}
	}
}

// Shuffle permutes the integers [0, n) and returns them.
func (r *RNG) Shuffle(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.src.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func logGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
