package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(1, 2)
	b := NewRNG(1, 2)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7, 9)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams look correlated: %d identical draws of 1000", same)
	}
}

func TestPoissonMeanVariance(t *testing.T) {
	r := NewRNG(3, 4)
	for _, mean := range []float64{0.5, 3, 12, 80, 400} {
		n := 20000
		sum, sumsq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := float64(r.Poisson(mean))
			sum += x
			sumsq += x * x
		}
		m := sum / float64(n)
		v := sumsq/float64(n) - m*m
		if math.Abs(m-mean) > 4*math.Sqrt(mean/float64(n))+0.05 {
			t.Errorf("Poisson(%g): sample mean %g too far from mean", mean, m)
		}
		if math.Abs(v-mean) > 0.15*mean+0.2 {
			t.Errorf("Poisson(%g): sample variance %g too far from mean", mean, v)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	r := NewRNG(1, 1)
	for i := 0; i < 10; i++ {
		if r.Poisson(0) != 0 {
			t.Fatal("Poisson(0) must be 0")
		}
		if r.Poisson(-1) != 0 {
			t.Fatal("Poisson(negative) must be 0")
		}
	}
}

func TestPoissonCI95KnownValues(t *testing.T) {
	// Reference values from standard exact Poisson CI tables (Garwood).
	cases := []struct {
		k      int
		lo, hi float64
	}{
		{0, 0, 3.6889},
		{1, 0.0253, 5.5716},
		{5, 1.6235, 11.6683},
		{10, 4.7954, 18.3904},
		{100, 81.3639, 121.627},
	}
	for _, c := range cases {
		ci := PoissonCI95(c.k)
		if math.Abs(ci.Lower-c.lo) > 0.01*math.Max(1, c.lo) {
			t.Errorf("k=%d lower: got %.4f want %.4f", c.k, ci.Lower, c.lo)
		}
		if math.Abs(ci.Upper-c.hi) > 0.01*c.hi {
			t.Errorf("k=%d upper: got %.4f want %.4f", c.k, ci.Upper, c.hi)
		}
	}
}

func TestPoissonCICoversCount(t *testing.T) {
	// Property: for any count, lower <= count <= upper, and intervals widen
	// monotonically with the count.
	f := func(k uint8) bool {
		n := int(k)
		ci := PoissonCI95(n)
		return ci.Lower <= float64(n) && float64(n) <= ci.Upper && ci.Lower >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonCIMonotone(t *testing.T) {
	prev := PoissonCI95(0)
	for k := 1; k < 300; k++ {
		ci := PoissonCI95(k)
		if ci.Lower < prev.Lower || ci.Upper < prev.Upper {
			t.Fatalf("CI not monotone at k=%d: %+v then %+v", k, prev, ci)
		}
		prev = ci
	}
}

func TestRegGammaPBoundaries(t *testing.T) {
	if got := RegGammaP(3, 0); got != 0 {
		t.Fatalf("P(3,0) = %g, want 0", got)
	}
	if got := RegGammaP(1, 1); math.Abs(got-(1-math.Exp(-1))) > 1e-12 {
		t.Fatalf("P(1,1) = %g, want 1-e^-1", got)
	}
	// P(a, x) -> 1 for large x.
	if got := RegGammaP(5, 1000); got < 1-1e-10 {
		t.Fatalf("P(5,1000) = %g, want ~1", got)
	}
}

func TestNormalQuantileSymmetry(t *testing.T) {
	for _, p := range []float64{0.001, 0.025, 0.1, 0.3, 0.5} {
		a := NormalQuantile(p)
		b := NormalQuantile(1 - p)
		if math.Abs(a+b) > 1e-8 {
			t.Errorf("quantile not symmetric at p=%g: %g vs %g", p, a, b)
		}
	}
	if math.Abs(NormalQuantile(0.975)-1.959964) > 1e-5 {
		t.Errorf("q(0.975) = %g", NormalQuantile(0.975))
	}
}

func TestRateEstimate(t *testing.T) {
	e := NewRateEstimate(50, 1e10)
	if e.Rate != 5e-9 {
		t.Fatalf("rate = %g", e.Rate)
	}
	if e.CI.Lower >= e.Rate || e.CI.Upper <= e.Rate {
		t.Fatalf("CI %+v does not bracket rate %g", e.CI, e.Rate)
	}
}

func TestRateEstimatePanicsOnZeroExposure(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRateEstimate(1, 0)
}

func TestProportionWilson(t *testing.T) {
	p := NewProportion(500, 1000)
	if math.Abs(p.P-0.5) > 1e-12 {
		t.Fatalf("p = %g", p.P)
	}
	if p.HalfWidth() > 0.035 || p.HalfWidth() < 0.025 {
		t.Fatalf("half-width = %g, want ~0.031", p.HalfWidth())
	}
	// Paper's criterion: campaigns sized so 95% CI < 5%.
	big := NewProportion(2000, 10000)
	if big.HalfWidth() > 0.05 {
		t.Fatalf("10k-trial campaign CI half-width %g exceeds 5%%", big.HalfWidth())
	}
}

func TestProportionBounds(t *testing.T) {
	f := func(s, n uint16) bool {
		trials := int(n)%5000 + 1
		succ := int(s) % (trials + 1)
		p := NewProportion(succ, trials)
		return p.Lower >= 0 && p.Upper <= 1 && p.Lower <= p.P && p.P <= p.Upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSignedRatioConvention(t *testing.T) {
	cases := []struct {
		meas, pred, want float64
	}{
		{12, 1, 12}, // beam 12x higher -> +12
		{1, 7, -7},  // prediction 7x higher -> -7
		{5, 5, 1},   // exact agreement
		{0, 0, 1},   // degenerate
	}
	for _, c := range cases {
		if got := SignedRatio(c.meas, c.pred); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("SignedRatio(%g,%g) = %g, want %g", c.meas, c.pred, got, c.want)
		}
	}
	if !math.IsInf(SignedRatio(1, 0), 1) {
		t.Error("zero prediction should give +Inf")
	}
}

func TestSignedRatioNeverInUnitInterval(t *testing.T) {
	f := func(a, b uint16) bool {
		m := float64(a)/100 + 0.01
		p := float64(b)/100 + 0.01
		r := SignedRatio(m, p)
		return math.Abs(r) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeomMeanAbsSigned(t *testing.T) {
	// Symmetric over/under-estimates cancel.
	g := GeomMeanAbsSigned([]float64{4, -4})
	if math.Abs(g-1) > 1e-9 {
		t.Fatalf("got %g, want 1", g)
	}
	g = GeomMeanAbsSigned([]float64{2, 8})
	if math.Abs(g-4) > 1e-9 {
		t.Fatalf("got %g, want 4", g)
	}
	g = GeomMeanAbsSigned([]float64{-2, -8})
	if math.Abs(g+4) > 1e-9 {
		t.Fatalf("got %g, want -4", g)
	}
}

func TestGeomMeanSkipsDegenerate(t *testing.T) {
	// Infinities and zeros are excluded from the log-domain mean but the
	// divisor still counts them (conservative shrink toward 1).
	g := GeomMeanAbsSigned([]float64{4, math.Inf(1), 0})
	if math.IsInf(g, 0) || math.IsNaN(g) {
		t.Fatalf("degenerate entries must not poison the mean: %g", g)
	}
	if GeomMeanAbsSigned(nil) != 0 {
		t.Fatal("empty input yields 0")
	}
}

func TestPoissonCIAlphaWidens(t *testing.T) {
	narrow := PoissonCIAlpha(50, 0.32) // ~68%
	wide := PoissonCIAlpha(50, 0.01)   // 99%
	if wide.Upper-wide.Lower <= narrow.Upper-narrow.Lower {
		t.Fatal("lower alpha must widen the interval")
	}
}
