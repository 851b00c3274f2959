package stats

import (
	"fmt"
	"math"
)

// RateEstimate is a counting-rate estimate with an exact Poisson 95%
// confidence interval: events per unit of exposure (fluence for beam
// experiments, device-hours for field rates).
type RateEstimate struct {
	Events   int
	Exposure float64 // e.g. particles/cm^2, or hours
	Rate     float64 // Events / Exposure
	CI       PoissonCI
}

// NewRateEstimate computes the rate and its exact Poisson 95% CI.
// It panics if exposure is not positive.
func NewRateEstimate(events int, exposure float64) RateEstimate {
	if exposure <= 0 {
		panic(fmt.Sprintf("stats: exposure must be positive, got %g", exposure))
	}
	ci := PoissonCI95(events)
	return RateEstimate{
		Events:   events,
		Exposure: exposure,
		Rate:     float64(events) / exposure,
		CI:       PoissonCI{Lower: ci.Lower / exposure, Upper: ci.Upper / exposure},
	}
}

// Proportion is a binomial proportion estimate with a Wilson 95% interval,
// used for AVFs (observed errors / injected faults). The paper sizes its
// injection campaigns so that 95% confidence intervals are below 5% (§III-D).
type Proportion struct {
	Successes int
	Trials    int
	P         float64
	Lower     float64
	Upper     float64
}

// NewProportion computes a binomial proportion with a Wilson score 95%
// interval. It panics if trials <= 0 or successes is out of range.
func NewProportion(successes, trials int) Proportion {
	if trials <= 0 {
		panic(fmt.Sprintf("stats: trials must be positive, got %d", trials))
	}
	if successes < 0 || successes > trials {
		panic(fmt.Sprintf("stats: successes %d out of range [0,%d]", successes, trials))
	}
	iv := Wilson(successes, trials)
	return Proportion{
		Successes: successes,
		Trials:    trials,
		P:         float64(successes) / float64(trials),
		Lower:     iv.Lower,
		Upper:     iv.Upper,
	}
}

// HalfWidth returns the half-width of the Wilson interval.
func (p Proportion) HalfWidth() float64 { return (p.Upper - p.Lower) / 2 }

// SignedRatio implements the paper's Figure 6 plotting convention: given a
// measured value and a predicted value, it returns measured/predicted when
// the measurement is at least the prediction, and the negative inverse
// (-predicted/measured) otherwise. A value of +1 or -1 means exact
// agreement; +12 means the beam measured 12x the prediction; -7 means the
// prediction was 7x the measurement.
func SignedRatio(measured, predicted float64) float64 {
	switch {
	case measured <= 0 && predicted <= 0:
		return 1
	case predicted <= 0:
		return math.Inf(1)
	case measured <= 0:
		return math.Inf(-1)
	case measured >= predicted:
		return measured / predicted
	default:
		return -predicted / measured
	}
}

// GeomMeanAbsSigned returns the geometric mean of |signed ratios| with the
// sign of the (log-domain) average, matching how the paper summarizes
// "average difference" across codes in §VII-A.
func GeomMeanAbsSigned(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range ratios {
		if r == 0 || math.IsInf(r, 0) || math.IsNaN(r) {
			continue
		}
		l := math.Log(math.Abs(r))
		if r < 0 {
			l = -l
		}
		sum += l
	}
	m := sum / float64(len(ratios))
	g := math.Exp(math.Abs(m))
	if m < 0 {
		return -g
	}
	return g
}
