package stats

import "math"

// wilsonZ is the 97.5% normal quantile: the z of every 95% Wilson score
// interval in the repository.
const wilsonZ = 1.959963984540054

// Interval is a binomial confidence interval on [0, 1].
type Interval struct {
	Lower float64
	Upper float64
}

// Width returns the full interval width, Upper - Lower. The adaptive
// campaign engine (internal/serve) stops an instruction class once this
// falls below the request's target; the rule is well-behaved because
// the width never grows as trials accumulate at a stable observed
// proportion (TestWilsonWidthMonotonicity).
func (i Interval) Width() float64 { return i.Upper - i.Lower }

// Wilson returns the Wilson score 95% interval for a binomial
// proportion of successes out of trials.
//
// Unlike NewProportion it tolerates trials == 0, returning the vacuous
// [0, 1] interval: an adaptive campaign that has not run a class yet
// has width 1 and can never satisfy a sub-1 stopping target by
// accident. It panics only on a genuinely malformed count (negative, or
// successes > trials).
func Wilson(successes, trials int) Interval {
	if trials == 0 && successes == 0 {
		return Interval{Lower: 0, Upper: 1}
	}
	if trials < 0 || successes < 0 || successes > trials {
		panic("stats: Wilson counts out of range")
	}
	n := float64(trials)
	p := float64(successes) / n
	denom := 1 + wilsonZ*wilsonZ/n
	center := (p + wilsonZ*wilsonZ/(2*n)) / denom
	half := wilsonZ * math.Sqrt(p*(1-p)/n+wilsonZ*wilsonZ/(4*n*n)) / denom
	iv := Interval{
		Lower: math.Max(0, center-half),
		Upper: math.Min(1, center+half),
	}
	// At p = 0 and p = 1 the score interval's near bound is exactly the
	// observed proportion, which rounding can miss by an ulp and leave
	// the interval excluding its own point estimate.
	if successes == 0 {
		iv.Lower = 0
	}
	if successes == trials {
		iv.Upper = 1
	}
	return iv
}

// WorstCaseTrials returns the smallest trial count whose Wilson 95%
// interval is no wider than width even at the least favorable observed
// proportion (successes = trials/2, where the interval is widest). It
// is the fixed, non-adaptive campaign size a per-class width target
// implies, and therefore the baseline the adaptive engine's savings are
// measured against. It panics if width is not in (0, 1].
func WorstCaseTrials(width float64) int {
	if width <= 0 || width > 1 {
		panic("stats: WorstCaseTrials width out of (0, 1]")
	}
	// The closed-form n = z^2 (1 - w^2) / w^2 solves the p = 1/2 Wilson
	// width equation exactly for even n; search the neighborhood to
	// absorb the odd-n floor of successes = n/2.
	guess := int(wilsonZ * wilsonZ * (1 - width*width) / (width * width))
	n := guess - 2
	if n < 1 {
		n = 1
	}
	for Wilson(n/2, n).Width() > width {
		n++
	}
	return n
}
