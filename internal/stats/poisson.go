package stats

import (
	"fmt"
	"math"
)

// PoissonCI is a two-sided confidence interval for a Poisson rate
// parameter, in the same units as the observed count.
type PoissonCI struct {
	Lower float64
	Upper float64
}

// PoissonCI95 returns the exact (Garwood) two-sided 95% confidence interval
// for the mean of a Poisson distribution given an observed count. The bounds
// are the classic chi-square quantile expressions,
//
//	lower = chi2(0.025, 2k)/2,  upper = chi2(0.975, 2k+2)/2,
//
// computed via the inverse regularized incomplete gamma function. For k = 0
// the lower bound is 0.
//
// The paper reports all beam-measured FIT rates with 95% confidence
// intervals assuming a Poisson distribution (§VI); this is that estimator.
func PoissonCI95(count int) PoissonCI {
	return PoissonCIAlpha(count, 0.05)
}

// PoissonCIAlpha returns the exact two-sided (1-alpha) confidence interval
// for a Poisson mean given an observed count.
func PoissonCIAlpha(count int, alpha float64) PoissonCI {
	if count < 0 {
		panic(fmt.Sprintf("stats: negative Poisson count %d", count))
	}
	k := float64(count)
	var lo float64
	if count > 0 {
		lo = gammaInvP(k, alpha/2)
	}
	hi := gammaInvP(k+1, 1-alpha/2)
	return PoissonCI{Lower: lo, Upper: hi}
}

// gammaInvP inverts the regularized lower incomplete gamma function
// P(a, x) = p for x, i.e. returns the p-quantile of a Gamma(a, 1)
// distribution. Uses a Wilson–Hilferty starting guess refined by
// bisection-safeguarded Newton iterations.
func gammaInvP(a, p float64) float64 {
	if a <= 0 {
		panic("stats: gammaInvP requires a > 0")
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Wilson–Hilferty approximation for the initial guess.
	g := normalQuantile(p)
	t := 1 - 1/(9*a) + g/(3*math.Sqrt(a))
	x := a * t * t * t
	if x <= 0 {
		x = 1e-8
	}
	lo, hi := 0.0, math.Max(2*x, 10*a+20)
	for regGammaP(a, hi) < p {
		lo = hi
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		f := regGammaP(a, x) - p
		if math.Abs(f) < 1e-12 {
			break
		}
		if f > 0 {
			hi = x
		} else {
			lo = x
		}
		// Newton step using the gamma density.
		d := math.Exp((a-1)*math.Log(x) - x - logGamma(a))
		var nx float64
		if d > 0 {
			nx = x - f/d
		}
		if d <= 0 || nx <= lo || nx >= hi {
			nx = (lo + hi) / 2
		}
		if math.Abs(nx-x) < 1e-14*math.Max(1, x) {
			x = nx
			break
		}
		x = nx
	}
	return x
}

// regGammaP computes the regularized lower incomplete gamma function
// P(a, x) via the series expansion for x < a+1 and the continued fraction
// for the complement otherwise (Numerical Recipes style).
func regGammaP(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		panic("stats: regGammaP domain error")
	case x == 0:
		return 0
	case x < a+1:
		return gammaSeries(a, x)
	default:
		return 1 - gammaContinuedFraction(a, x)
	}
}

func gammaSeries(a, x float64) float64 {
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-logGamma(a))
}

func gammaContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-logGamma(a)) * h
}

// normalQuantile returns the p-quantile of the standard normal
// distribution using the Acklam rational approximation (relative error
// below 1.15e-9 over the full domain), sufficient as a Newton seed and for
// normal-approximation intervals.
func normalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
