package faultinj

import (
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/suite"
)

// TestDUEModeCrossVal checks, over every cross-validation workload on
// both devices, that the static DUE-mode distribution and the typed DUE
// ledger of an NVBitFI campaign agree within DUEModeTolerance (L-inf
// over the four mode shares), skipping campaigns with too few DUEs to
// measure a distribution.
func TestDUEModeCrossVal(t *testing.T) {
	if testing.Short() {
		t.Skip("per-kernel 400-fault campaigns on two devices; skipped in -short")
	}
	devices := []struct {
		dev     *device.Device
		entries []suite.Entry
	}{
		{device.K40c(), suite.Kepler()},
		{device.V100(), suite.Volta()},
	}
	cfg := Config{Tool: NVBitFI, TotalFaults: 400, Seed: 7}
	checked := 0
	for _, d := range devices {
		for _, name := range CrossValKernels {
			e, err := suite.Find(d.entries, name)
			if err != nil {
				continue // kernel not in this device's suite
			}
			runner := testRunner(t, e.Name, e.Build, d.dev, cfg.Tool.OptLevel())
			dyn, err := RunWithRunner(cfg, runner)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, d.dev.Name, err)
			}
			cv, err := PairDUEModes(runner, dyn)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, d.dev.Name, err)
			}
			t.Logf("%-10s %-5s dyn(n=%3d) h %.2f i %.2f s %.2f u %.2f | static h %.2f i %.2f s %.2f u %.2f | L-inf %.3f",
				name, d.dev.Name, cv.DynamicDUEs,
				cv.DynamicMix.Hang, cv.DynamicMix.IllegalAddress, cv.DynamicMix.SyncError, cv.DynamicMix.Unattributed,
				cv.StaticMix.Hang, cv.StaticMix.IllegalAddress, cv.StaticMix.SyncError, cv.StaticMix.Unattributed,
				cv.Delta())
			if cv.Static.Sites == 0 || cv.Static.DUEMass <= 0 {
				t.Errorf("%s on %s: degenerate static mode estimate (%d sites, mass %g)",
					name, d.dev.Name, cv.Static.Sites, cv.Static.DUEMass)
			}
			if !cv.Measurable() {
				continue
			}
			checked++
			if !cv.Agrees() {
				t.Errorf("%s on %s: static vs injected DUE-mode L-inf %.3f outside tolerance %.2f",
					name, d.dev.Name, cv.Delta(), DUEModeTolerance)
			}
		}
	}
	if checked == 0 {
		t.Error("no campaign produced enough DUEs to test the mode distribution")
	}
}

// TestDUEModeLedgerWorkerDeterminism pins that the typed-DUE ledger a
// campaign tallies is independent of its worker count.
func TestDUEModeLedgerWorkerDeterminism(t *testing.T) {
	dev := device.K40c()
	e, err := suite.Find(suite.Kepler(), "BFS")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) Tally {
		return campaign(t, Config{
			Tool: NVBitFI, TotalFaults: 120, Workers: workers, Seed: 99,
		}, e.Name, e.Build, dev).Tally
	}
	a, b := run(1), run(7)
	if a.DUEModes != b.DUEModes {
		t.Errorf("DUE-mode ledger depends on worker count: 1 worker %+v, 7 workers %+v",
			a.DUEModes, b.DUEModes)
	}
	if a.DUEModes.DUEs() != a.DUE {
		t.Errorf("ledger absorbed %d DUEs, campaign counted %d", a.DUEModes.DUEs(), a.DUE)
	}
}

// TestStaticDUEModesDeterministic pins the static mode estimate as a
// pure function of the workload.
func TestStaticDUEModesDeterministic(t *testing.T) {
	dev := device.K40c()
	e, err := suite.Find(suite.Kepler(), "FMXM")
	if err != nil {
		t.Fatal(err)
	}
	run := func() [4]float64 {
		st, err := StaticDUEModes(testRunner(t, e.Name, e.Build, dev, NVBitFI.OptLevel()), NVBitFI)
		if err != nil {
			t.Fatal(err)
		}
		return [4]float64{st.Hang, st.IllegalAddress, st.SyncError, st.Unattributed}
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("static DUE modes not deterministic: %v vs %v", a, b)
	}
}
