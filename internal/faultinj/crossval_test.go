package faultinj

import (
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/suite"
)

// TestCrossValidateAgreement checks, over every workload in
// CrossValKernels, that the bit-resolved static AVF estimate and a
// dynamic NVBitFI campaign agree within the documented tolerance, and
// that the per-bit-band table attributes the campaign's fired trials.
func TestCrossValidateAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("nine 400-fault campaigns; skipped in -short (the race tier)")
	}
	dev := device.K40c()
	cfg := Config{Tool: NVBitFI, TotalFaults: 400, Seed: 7}
	for _, name := range CrossValKernels {
		e, err := suite.Find(suite.Kepler(), name)
		if err != nil {
			t.Fatal(err)
		}
		runner := testRunner(t, e.Name, e.Build, dev, cfg.Tool.OptLevel())
		dyn, err := RunWithRunner(cfg, runner)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cv, err := CrossValidate(runner, dyn)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !cv.Agrees() {
			t.Errorf("%s: static unmasked %.3f vs dynamic %.3f (delta %+.3f) outside tolerance %.2f",
				name, cv.StaticUnmasked(), cv.DynamicUnmasked(), cv.Delta(), CrossValTolerance)
		}
		if cv.Static.Sites == 0 || cv.Dynamic.Injected == 0 {
			t.Errorf("%s: degenerate cross-validation: %d static sites, %d injections",
				name, cv.Static.Sites, cv.Dynamic.Injected)
		}
		t.Logf("%-10s dyn %.3f static %.3f (delta %+.3f)",
			name, cv.DynamicUnmasked(), cv.StaticUnmasked(), cv.Delta())

		// The band table must attribute every fired value-bit trial.
		fired := 0
		for _, row := range cv.BandTable() {
			fired += row.Injected
		}
		if fired == 0 {
			t.Errorf("%s: no fired trials attributed to any bit band", name)
		}
	}
}

// TestStaticEstimateDeterministic pins that the static path has no
// hidden dependence on campaign state: two estimates of the same
// workload are identical.
func TestStaticEstimateDeterministic(t *testing.T) {
	dev := device.K40c()
	e, err := suite.Find(suite.Kepler(), "FMXM")
	if err != nil {
		t.Fatal(err)
	}
	run := func() float64 {
		est, err := StaticEstimate(testRunner(t, e.Name, e.Build, dev, NVBitFI.OptLevel()), NVBitFI)
		if err != nil {
			t.Fatal(err)
		}
		return est.Unmasked()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("static estimate not deterministic: %.6f vs %.6f", a, b)
	}
}
