package fit

import (
	"math"
	"testing"

	"gpurel/internal/analysis"
)

// TestMeasuredHiddenDUEBase pins the measured floor extraction: minimum
// exposure-normalized micro DUE rate, RF excluded, zero without
// telemetry.
func TestMeasuredHiddenDUEBase(t *testing.T) {
	u := &UnitFITs{
		DUE:                 map[string]float64{"IADD": 0.8, "FADD": 1.2, "LDST": 0.9, "RF": 0.01},
		MicroHiddenExposure: map[string]float64{"IADD": 4, "FADD": 2, "LDST": 30, "RF": 1},
	}
	// IADD 0.2, FADD 0.6, LDST 0.03; RF (0.01) must not win.
	if got := u.MeasuredHiddenDUEBase(); math.Abs(got-0.03) > 1e-12 {
		t.Fatalf("MeasuredHiddenDUEBase = %.4f, want 0.03 (LDST)", got)
	}
	bare := &UnitFITs{DUE: map[string]float64{"IADD": 0.8}}
	if got := bare.MeasuredHiddenDUEBase(); got != 0 {
		t.Fatalf("no telemetry must disable the measured base, got %.4f", got)
	}
	rfOnly := &UnitFITs{
		DUE:                 map[string]float64{"RF": 5},
		MicroHiddenExposure: map[string]float64{"RF": 1},
	}
	if got := rfOnly.MeasuredHiddenDUEBase(); got != 0 {
		t.Fatalf("RF-only MeasuredHiddenDUEBase = %.4f, want 0", got)
	}
}

// TestApplyMeasuredDUE pins the measured correction arithmetic and its
// no-op conditions, including a static (non-measured) estimate.
func TestApplyMeasuredDUE(t *testing.T) {
	u := &UnitFITs{
		DUE:                 map[string]float64{"IADD": 0.5},
		MicroHiddenExposure: map[string]float64{"IADD": 2},
	}
	hid := &analysis.HiddenEstimate{Measured: true, DUE: 0.8, Exposure: 10}
	p := Prediction{DUEFIT: 0.02}
	c := p.ApplyMeasuredDUE(u, hid)
	// base 0.25 x DUEExposure (10 x 0.8 = 8) = 2.
	if math.Abs(c.DUECorrectionMeasured-2) > 1e-12 {
		t.Fatalf("DUECorrectionMeasured = %.4f, want 2", c.DUECorrectionMeasured)
	}
	if math.Abs(c.DUEFITCorrectedMeasured-2.02) > 1e-12 {
		t.Fatalf("DUEFITCorrectedMeasured = %.4f, want 2.02", c.DUEFITCorrectedMeasured)
	}
	if c.DUEFIT != p.DUEFIT || c.MeasuredHiddenDUE != hid.DUE {
		t.Fatal("uncorrected fields must be preserved alongside the correction")
	}
	if n := p.ApplyMeasuredDUE(nil, hid); n.DUECorrectionMeasured != 0 {
		t.Fatal("nil units must be a no-op")
	}
	if n := p.ApplyMeasuredDUE(u, nil); n.DUECorrectionMeasured != 0 {
		t.Fatal("nil hidden estimate must be a no-op")
	}
	static := &analysis.HiddenEstimate{DUE: 0.8, Exposure: 10}
	if n := p.ApplyMeasuredDUE(u, static); n.DUECorrectionMeasured != 0 {
		t.Fatal("a static estimate must not feed the measured correction")
	}
}
