package faultinj

import (
	"testing"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/beam"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/suite"
)

// TestHiddenCrossValAgreement checks that the static hidden-resource
// DUE model and the beam campaign's hidden-strike ledger agree within
// HiddenCrossValTolerance on the pinned kernel list. Campaigns run with
// ECC on: storage strikes then short-circuit, so 2000 trials stay cheap
// while drawing enough hidden strikes for the fraction to be meaningful.
func TestHiddenCrossValAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("five 2000-trial campaigns; skipped in -short (the race tier)")
	}
	dev := device.K40c()
	cfg := beam.Config{ECC: true, Trials: 2000, Seed: 11}
	for _, name := range HiddenCrossValKernels {
		e, err := suite.Find(suite.Kepler(), name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := kernels.NewRunner(e.Name, e.Build, dev, asm.O2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cv, err := CrossValidateHidden(cfg, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !cv.Agrees() {
			t.Errorf("%s: static P(DUE|hidden) %.3f vs beam %.3f (delta %+.3f) outside tolerance %.2f",
				name, cv.StaticDUEGivenStrike(), cv.BeamDUEGivenStrike(), cv.Delta(), HiddenCrossValTolerance)
		}
		if !cv.MeasuredAgrees() {
			t.Errorf("%s: measured P(DUE|hidden) %.3f vs beam %.3f (delta %+.3f) outside tolerance %.2f",
				name, cv.MeasuredDUEGivenStrike(), cv.BeamDUEGivenStrike(), cv.MeasuredDelta(), MeasuredCrossValTolerance)
		}
		t.Logf("%s: static %+.3f measured %+.3f (beam %.3f, %d hidden strikes)",
			name, cv.Delta(), cv.MeasuredDelta(), cv.BeamDUEGivenStrike(), cv.Beam.HiddenStrikes())
		if got := cv.Beam.HiddenStrikes(); got < 30 {
			t.Errorf("%s: only %d hidden strikes; the pinned list promises a usable sample", name, got)
		}
		s := cv.Static
		if sum := s.SchedulerShare + s.InstrPipeShare + s.MemPathShare + s.HostIfaceShare; sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: static shares sum to %.6f, want 1", name, sum)
		}
	}
}

// TestHiddenCrossValVoidWithoutStrikes pins the Agrees contract: a
// campaign that sampled no hidden strikes is void, not validated.
func TestHiddenCrossValVoidWithoutStrikes(t *testing.T) {
	cv := &HiddenCrossValidation{
		Static: analysis.Analyze(&isa.Program{Name: "void"}).HiddenEstimate(nil),
		Beam:   &beam.Result{},
	}
	if cv.Agrees() {
		t.Error("cross-validation with zero hidden strikes must not count as agreement")
	}
}

// TestStaticHiddenDeterministic pins that the static hidden path has no
// dependence on campaign or map-iteration state.
func TestStaticHiddenDeterministic(t *testing.T) {
	dev := device.V100()
	e, err := suite.Find(suite.Volta(), "FMXM")
	if err != nil {
		t.Fatal(err)
	}
	run := func() float64 {
		r, err := kernels.NewRunner(e.Name, e.Build, dev, asm.O2)
		if err != nil {
			t.Fatal(err)
		}
		return StaticHidden(r).DUE
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("static hidden DUE not deterministic: %.9f vs %.9f", a, b)
	}
}
