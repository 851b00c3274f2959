package analysis

import (
	"math"
	"testing"

	"gpurel/internal/isa"
)

func ldg(dst, addr isa.Reg) isa.Instr { return raw(isa.OpLDG, dst, addr) }

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func checkShares(t *testing.T, h *HiddenEstimate) {
	t.Helper()
	sum := h.SchedulerShare + h.InstrPipeShare + h.MemPathShare + h.HostIfaceShare
	if !near(sum, 1) {
		t.Errorf("%s: shares sum to %.12f, want 1", h.Name, sum)
	}
	if h.DUE <= 0 || h.DUE >= 1 {
		t.Errorf("%s: DUE = %.6f, want a probability strictly inside (0,1)", h.Name, h.DUE)
	}
}

// TestHiddenNeutralPrior pins the prior-only estimate: an empty program
// has no proxies, so shares are the base shares and the DUE is the
// documented nominal value consumers divide by.
func TestHiddenNeutralPrior(t *testing.T) {
	h := Analyze(prog("empty")).HiddenEstimate(nil)
	if h.FetchExposure != 0 || h.DivergenceDepth != 0 || h.LoadPressure != 0 {
		t.Fatalf("empty program proxies = (%.3f, %.3f, %.3f), want zeros",
			h.FetchExposure, h.DivergenceDepth, h.LoadPressure)
	}
	if !near(h.DUE, NominalHiddenDUE) {
		t.Errorf("neutral DUE = %.9f, want NominalHiddenDUE = %.9f", h.DUE, NominalHiddenDUE)
	}
	if !near(NominalHiddenDUE, 0.796) {
		t.Errorf("NominalHiddenDUE = %.9f, want 0.796", NominalHiddenDUE)
	}
	checkShares(t, h)
}

// TestHiddenProxiesStraightLine pins the proxies on a single basic
// block: one fetch-line entry over five instructions, no SSY regions,
// no loads.
func TestHiddenProxiesStraightLine(t *testing.T) {
	h := Analyze(prog("straight",
		movi(rr(0)),
		movi(rr(1)),
		iadd(rr(2), rr(0), rr(0)),
		stg(rr(1), rr(2)),
		exit(),
	)).HiddenEstimate(nil)
	if !near(h.FetchExposure, 1.0/5) {
		t.Errorf("FetchExposure = %.6f, want 0.2 (one block entry / 5 instrs)", h.FetchExposure)
	}
	if h.DivergenceDepth != 0 || h.LoadPressure != 0 {
		t.Errorf("divergence/load = (%.6f, %.6f), want zeros", h.DivergenceDepth, h.LoadPressure)
	}
	// Fetch pressure shifts share toward the instruction pipe, the
	// resource with the lowest conditional DUE probability.
	if h.DUE >= NominalHiddenDUE {
		t.Errorf("DUE = %.6f, want below the neutral prior %.6f", h.DUE, NominalHiddenDUE)
	}
	checkShares(t, h)
}

// TestHiddenProxiesDiamond pins fetch exposure and divergence depth on
// the canonical SSY diamond (same program as TestCFGShapes): four
// blocks, two of which end in stream-redirecting terminators, and one
// SSY region covering instructions 4..7.
func TestHiddenProxiesDiamond(t *testing.T) {
	diamond := prog("diamond",
		movi(rr(0)), movi(rr(1)), isetp(pp(0), rr(0), isa.RZ),
		ssy(8), braIf(pp(0), true, 7),
		iadd(rr(2), rr(0), rr(0)), bra(8),
		imul(rr(2), rr(0), rr(0)),
		stg(rr(1), rr(2)), exit(),
	)
	h := Analyze(diamond).HiddenEstimate(nil)
	// Blocks [0..4] (BRA, cost 2), [5..6] (BRA, cost 2), [7] (cost 1),
	// [8..9] (cost 1): 6 discontinuities over 10 instructions.
	if !near(h.FetchExposure, 0.6) {
		t.Errorf("FetchExposure = %.6f, want 0.6", h.FetchExposure)
	}
	// The SSY at 3 targets 8: instructions 4..7 sit at depth 1.
	if !near(h.DivergenceDepth, 0.4) {
		t.Errorf("DivergenceDepth = %.6f, want 0.4", h.DivergenceDepth)
	}
	if h.LoadPressure != 0 {
		t.Errorf("LoadPressure = %.6f, want 0", h.LoadPressure)
	}
	checkShares(t, h)

	// Dynamic weighting: zeroing the else leg (instruction 7) drops its
	// block and its share of the SSY region.
	w := []float64{1, 1, 1, 1, 1, 1, 1, 0, 1, 1}
	hw := Analyze(diamond).HiddenEstimate(w)
	if !near(hw.FetchExposure, 5.0/9) {
		t.Errorf("weighted FetchExposure = %.6f, want 5/9", hw.FetchExposure)
	}
	if !near(hw.DivergenceDepth, 3.0/9) {
		t.Errorf("weighted DivergenceDepth = %.6f, want 1/3", hw.DivergenceDepth)
	}
	checkShares(t, hw)
}

// TestHiddenLoadPressure pins the def-use span model: a forward span
// held over two instructions, and a loop-carried span that wraps to the
// next iteration.
func TestHiddenLoadPressure(t *testing.T) {
	forward := prog("forward",
		movi(rr(0)),               // 0: address
		ldg(rr(2), rr(0)),         // 1: load, furthest use at 3
		movi(rr(3)),               // 2: second address
		iadd(rr(4), rr(2), rr(2)), // 3
		stg(rr(3), rr(4)),         // 4
		exit(),                    // 5
	)
	h := Analyze(forward).HiddenEstimate(nil)
	// One load with span 2 over n=6 instructions, uniform weights:
	// (2/6)/6 = 1/18.
	if !near(h.LoadPressure, 1.0/18) {
		t.Errorf("forward LoadPressure = %.6f, want 1/18", h.LoadPressure)
	}
	if !near(h.FetchExposure, 1.0/6) {
		t.Errorf("forward FetchExposure = %.6f, want 1/6", h.FetchExposure)
	}
	checkShares(t, h)

	carried := prog("carried",
		movi(rr(0)),                 // 0: address
		movi(rr(2)),                 // 1: initial value
		iadd(rr(3), rr(2), rr(2)),   // 2: body leader, consumes the load
		ldg(rr(2), rr(0)),           // 3: load for the next iteration
		isetp(pp(0), rr(3), isa.RZ), // 4
		braIf(pp(0), false, 2),      // 5: back edge
		stg(rr(0), rr(3)),           // 6
		exit(),                      // 7
	)
	h = Analyze(carried).HiddenEstimate(nil)
	// The load at 3 reaches the use at 2 across the back edge: span
	// wraps as n-3+2 = 7 over n=8, so (7/8)/8 = 7/64.
	if !near(h.LoadPressure, 7.0/64) {
		t.Errorf("carried LoadPressure = %.6f, want 7/64", h.LoadPressure)
	}
	checkShares(t, h)

	// Monotonicity: the same loop with the load replaced by an ALU op
	// has identical fetch/divergence proxies but no outstanding-load
	// mass, so its memory-path share and combined DUE must be lower
	// (mem path carries the highest PDUE of the modulated resources).
	noload := prog("carried-noload",
		movi(rr(0)),
		movi(rr(2)),
		iadd(rr(3), rr(2), rr(2)),
		iadd(rr(2), rr(0), rr(0)),
		isetp(pp(0), rr(3), isa.RZ),
		braIf(pp(0), false, 2),
		stg(rr(0), rr(3)),
		exit(),
	)
	hn := Analyze(noload).HiddenEstimate(nil)
	if hn.LoadPressure != 0 {
		t.Fatalf("no-load variant LoadPressure = %.6f, want 0", hn.LoadPressure)
	}
	if !near(hn.FetchExposure, h.FetchExposure) || !near(hn.DivergenceDepth, h.DivergenceDepth) {
		t.Fatalf("variants differ outside load pressure: fetch %.6f vs %.6f, div %.6f vs %.6f",
			hn.FetchExposure, h.FetchExposure, hn.DivergenceDepth, h.DivergenceDepth)
	}
	if h.MemPathShare <= hn.MemPathShare || h.DUE <= hn.DUE {
		t.Errorf("load pressure did not raise mem-path share/DUE: (%.6f, %.6f) vs (%.6f, %.6f)",
			h.MemPathShare, h.DUE, hn.MemPathShare, hn.DUE)
	}
}

// TestCombineHidden checks the workload-level merge: proxies combine as
// weighted means and the result is re-finished, so it equals a direct
// estimate built from the blended proxies.
func TestCombineHidden(t *testing.T) {
	a := &HiddenEstimate{Name: "a", FetchExposure: 0.2, DivergenceDepth: 0.0, LoadPressure: 0.08}
	b := &HiddenEstimate{Name: "b", FetchExposure: 0.6, DivergenceDepth: 0.4, LoadPressure: 0.0}
	a.finishHidden()
	b.finishHidden()
	c := CombineHidden("ab", []*HiddenEstimate{a, b}, []float64{1, 3})
	if !near(c.FetchExposure, 0.5) || !near(c.DivergenceDepth, 0.3) || !near(c.LoadPressure, 0.02) {
		t.Errorf("combined proxies = (%.6f, %.6f, %.6f), want (0.5, 0.3, 0.02)",
			c.FetchExposure, c.DivergenceDepth, c.LoadPressure)
	}
	want := &HiddenEstimate{FetchExposure: 0.5, DivergenceDepth: 0.3, LoadPressure: 0.02}
	want.finishHidden()
	if !near(c.DUE, want.DUE) {
		t.Errorf("combined DUE = %.9f, want %.9f (finish of blended proxies)", c.DUE, want.DUE)
	}
	checkShares(t, c)

	// Zero total weight falls back to the neutral prior.
	z := CombineHidden("z", []*HiddenEstimate{a, b}, []float64{0, 0})
	if !near(z.DUE, NominalHiddenDUE) {
		t.Errorf("zero-weight combine DUE = %.6f, want neutral %.6f", z.DUE, NominalHiddenDUE)
	}
}

// TestWithResidencyShares pins the measured-model arithmetic on a hand
// computation: warps=10, no modulating activity, so the weights are the
// raw sensitivity lines and the shares follow directly.
func TestWithResidencyShares(t *testing.T) {
	m := MeasuredResidency{WarpsPerSMCycle: 10, SMCyclesPerCycle: 2}
	h := (&HiddenEstimate{Name: "flat"}).WithResidency(m)
	if !h.Measured {
		t.Fatal("WithResidency must mark the estimate as measured")
	}
	// ws=1.0*10+2.4=12.4, wi=0.8*10+2.0=10, wm=0.5*10+1.6=6.6, wh=1.0.
	total := 12.4 + 10.0 + 6.6 + 1.0
	if !near(h.SchedulerShare, 12.4/total) || !near(h.InstrPipeShare, 10.0/total) ||
		!near(h.MemPathShare, 6.6/total) || !near(h.HostIfaceShare, 1.0/total) {
		t.Errorf("shares = (%.6f, %.6f, %.6f, %.6f), want raw sensitivity ratios",
			h.SchedulerShare, h.InstrPipeShare, h.MemPathShare, h.HostIfaceShare)
	}
	if !near(h.Exposure, total*2) {
		t.Errorf("exposure = %.6f, want total weight x SM residency = %.6f", h.Exposure, total*2)
	}
	if !near(h.DUEExposure(), h.Exposure*h.DUE) {
		t.Errorf("DUEExposure = %.6f, want Exposure*DUE", h.DUEExposure())
	}
	checkShares(t, h)
}

// TestWithResidencyModulation pins the proxy fine-tuning: divergence
// raises the scheduler share, load depth saturates into [0,1) and
// raises the mem path, and the static receiver is left untouched.
func TestWithResidencyModulation(t *testing.T) {
	static := &HiddenEstimate{Name: "s", FetchExposure: 0.3, DivergenceDepth: 0.1, LoadPressure: 0.2}
	static.finishHidden()
	staticDUE := static.DUE

	flat := static.WithResidency(MeasuredResidency{WarpsPerSMCycle: 4, SMCyclesPerCycle: 1})
	div := static.WithResidency(MeasuredResidency{WarpsPerSMCycle: 4, SMCyclesPerCycle: 1, DivDepth: 2})
	if div.SchedulerShare <= flat.SchedulerShare {
		t.Errorf("divergence residency did not raise the scheduler share: %.6f vs %.6f",
			div.SchedulerShare, flat.SchedulerShare)
	}
	load := static.WithResidency(MeasuredResidency{WarpsPerSMCycle: 4, SMCyclesPerCycle: 1, LoadDepth: 3})
	if !near(load.LoadPressure, 3.0/4.0) {
		t.Errorf("load depth 3 must saturate to 0.75, got %.6f", load.LoadPressure)
	}
	if load.MemPathShare <= flat.MemPathShare {
		t.Errorf("load residency did not raise the mem-path share: %.6f vs %.6f",
			load.MemPathShare, flat.MemPathShare)
	}
	if static.Measured || !near(static.DUE, staticDUE) {
		t.Fatal("WithResidency mutated its static receiver")
	}
	checkShares(t, flat)
	checkShares(t, div)
	checkShares(t, load)
}

// TestWithResidencyZeroIsFinite pins that an all-zero measurement (a
// workload whose telemetry never sampled) still yields finite shares:
// the per-SM sensitivity floor keeps the total weight positive.
func TestWithResidencyZeroIsFinite(t *testing.T) {
	h := (&HiddenEstimate{Name: "zero"}).WithResidency(MeasuredResidency{})
	checkShares(t, h)
	if h.Exposure != 0 {
		t.Errorf("zero SM residency must zero the exposure, got %.6f", h.Exposure)
	}
	if math.IsNaN(h.DUE) || math.IsInf(h.DUE, 0) {
		t.Fatalf("DUE = %v", h.DUE)
	}
}
