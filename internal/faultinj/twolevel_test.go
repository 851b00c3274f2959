package faultinj

import (
	"reflect"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/suite"
)

// TestTwoLevelCrossVal is the estimator's acceptance gate: on every
// cross-validation workload, the two-level SDC AVF must land within
// TwoLevelTolerance of an exhaustive NVBitFI campaign's while spending
// at least five times fewer simulations. Both sides share one runner,
// so the comparison isolates the estimator, not the build.
func TestTwoLevelCrossVal(t *testing.T) {
	if testing.Short() {
		t.Skip("nine exhaustive 500-fault campaigns plus the two-level runs")
	}
	dev := device.K40c()
	for _, name := range CrossValKernels {
		e, err := suite.Find(suite.Kepler(), name)
		if err != nil {
			t.Fatal(err)
		}
		runner := testRunner(t, e.Name, e.Build, dev, NVBitFI.OptLevel())
		exact, err := RunWithRunner(Config{Tool: NVBitFI, TotalFaults: 500, Seed: 7}, runner)
		if err != nil {
			t.Fatalf("%s: exhaustive campaign: %v", name, err)
		}
		tl, err := TwoLevelEstimateWithRunner(TwoLevelConfig{Tool: NVBitFI, Seed: 7}, runner)
		if err != nil {
			t.Fatalf("%s: two-level estimate: %v", name, err)
		}
		if !tl.Agrees(exact) {
			t.Errorf("%s: two-level SDC %.3f vs exhaustive %.3f (delta %+.3f) outside ±%.2f",
				name, tl.SDCAVF, exact.SDCAVF.P, tl.Delta(exact), TwoLevelTolerance)
		}
		if sp := tl.Speedup(exact); sp < 5 {
			t.Errorf("%s: speedup %.1fx below 5x (%d two-level vs %d exhaustive trials)",
				name, sp, tl.Trials, exact.Injected)
		}
		if tl.Sites == 0 || tl.Trials == 0 {
			t.Errorf("%s: degenerate estimate: %d sites, %d trials", name, tl.Sites, tl.Trials)
		}
		t.Logf("%-10s exact %.3f two-level %.3f (delta %+.3f) %d sites, %d vs %d trials (%.1fx)",
			name, exact.SDCAVF.P, tl.SDCAVF, tl.Delta(exact), tl.Sites,
			tl.Trials, exact.Injected, tl.Speedup(exact))
	}
}

// TestTwoLevelDeterministicAcrossWorkers pins the index-addressed trial
// scheme: the estimate — AVFs, trial count, and propagated pattern mix —
// is bit-identical on one worker and eight.
func TestTwoLevelDeterministicAcrossWorkers(t *testing.T) {
	dev := device.K40c()
	run := func(workers int) *TwoLevelResult {
		res, err := TwoLevelEstimateWithRunner(TwoLevelConfig{
			Tool: NVBitFI, Workers: workers, Seed: 11, TrialBudget: 48,
		}, testRunner(t, "FMXM", kernels.MxMBuilder(isa.F32), dev, NVBitFI.OptLevel()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two-level estimate differs across worker counts:\n1: %+v\n8: %+v", a, b)
	}
}
