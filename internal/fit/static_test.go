package fit

import (
	"math"
	"testing"

	"gpurel/internal/analysis"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/profiler"
	"gpurel/internal/suite"
)

func TestStaticAVFResultShape(t *testing.T) {
	est := &analysis.Estimate{
		Name: "k", Sites: 3, SDC: 0.4, DUE: 0.1,
		PerClass: map[isa.Class]*analysis.ClassEstimate{
			isa.ClassFMA: {Class: isa.ClassFMA, Sites: 2, Weight: 10, SDC: 0.5, DUE: 0.2},
		},
	}
	res := StaticAVFResult(est, faultinj.NVBitFI, "K40c")
	if res.SDCAVF.P != 0.4 || res.DUEAVF.P != 0.1 {
		t.Fatalf("whole-program AVFs %v/%v, want 0.4/0.1", res.SDCAVF.P, res.DUEAVF.P)
	}
	ca := res.PerClass[isa.ClassFMA]
	if ca == nil || ca.SDCAVF.P != 0.5 || ca.DUEAVF.P != 0.2 {
		t.Fatalf("FMA class AVF = %+v, want 0.5/0.2", ca)
	}
	if res.SDCAVF.Trials != 0 || res.Injected != 0 {
		t.Fatal("synthetic result must carry zero trials/injections")
	}
	if _, ok := res.ByMode[faultinj.ModeGPR]; ok {
		t.Fatal("synthetic result must not fake a GPR-mode campaign")
	}
}

// TestPredictStaticTracksDynamic runs the full static path on a real
// kernel and checks the resulting FIT prediction lands in the same
// range as the injection-driven prediction — the drop-in property the
// static estimator exists for.
func TestPredictStaticTracksDynamic(t *testing.T) {
	dev := device.K40c()
	e, err := suite.Find(suite.Kepler(), "FMXM")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := kernels.NewRunner(e.Name, e.Build, dev, faultinj.NVBitFI.OptLevel())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := profiler.Profile(runner)
	if err != nil {
		t.Fatal(err)
	}
	est, err := faultinj.StaticEstimate(runner, faultinj.NVBitFI)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := faultinj.RunWithRunner(faultinj.Config{Tool: faultinj.NVBitFI, TotalFaults: 300, Seed: 11}, runner)
	if err != nil {
		t.Fatal(err)
	}

	units := fakeUnits()
	stat := PredictStatic(cp, est, faultinj.NVBitFI, dev.Name, units, true)
	inj := Predict(cp, dyn, units, true)

	if stat.SDCFIT <= 0 || math.IsNaN(stat.SDCFIT) {
		t.Fatalf("static SDC FIT = %g, want positive", stat.SDCFIT)
	}
	if stat.Phi != inj.Phi || stat.Covered != inj.Covered {
		t.Fatalf("static path changed profile terms: phi %g/%g covered %g/%g",
			stat.Phi, inj.Phi, stat.Covered, inj.Covered)
	}
	// The AVF sources agree within faultinj.CrossValTolerance in
	// absolute AVF terms, so the predictions must agree within a small
	// multiplicative band.
	if ratio := stat.SDCFIT / inj.SDCFIT; ratio < 1.0/3 || ratio > 3 {
		t.Fatalf("static SDC FIT %g vs dynamic %g (ratio %.2f) diverge beyond 3x",
			stat.SDCFIT, inj.SDCFIT, ratio)
	}
}
