package faultinj

import (
	"reflect"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
)

// TestCampaignDeterministicAcrossWorkers locks in the split-RNG scheme:
// plan sampling consumes one serial RNG before any worker starts, and
// every plan's outcome is a pure function of the plan, so the campaign
// result must be bit-identical whether trials run on one worker or
// eight.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full campaigns")
	}
	dev := device.K40c()
	run := func(workers int) *Result {
		return campaign(t, Config{
			Tool: Sassifi, FaultsPerClass: 12, Workers: workers, Seed: 99,
		}, "FMXM", kernels.MxMBuilder(isa.F32), dev)
	}
	a, b := run(1), run(8)
	if a.Injected != b.Injected || a.SDC != b.SDC || a.DUE != b.DUE || a.Masked != b.Masked {
		t.Fatalf("workers=1 gave SDC/DUE/Masked %d/%d/%d of %d, workers=8 gave %d/%d/%d of %d",
			a.SDC, a.DUE, a.Masked, a.Injected, b.SDC, b.DUE, b.Masked, b.Injected)
	}
	if !reflect.DeepEqual(a.PerClass, b.PerClass) {
		t.Fatalf("per-class AVFs differ across worker counts:\n1: %+v\n8: %+v", a.PerClass, b.PerClass)
	}
	if !reflect.DeepEqual(a.ByMode, b.ByMode) {
		t.Fatalf("per-mode AVFs differ across worker counts:\n1: %+v\n8: %+v", a.ByMode, b.ByMode)
	}
	if a.Patterns != b.Patterns {
		t.Fatalf("pattern ledgers differ across worker counts:\n1: %+v\n8: %+v", a.Patterns, b.Patterns)
	}
	if a.Patterns.SDCs() != a.SDC {
		t.Fatalf("pattern ledger absorbed %d SDCs, campaign counted %d", a.Patterns.SDCs(), a.SDC)
	}
}

// TestNVBitFIDeterministicAcrossWorkers covers the same property for the
// NVBitFI frontend on a multi-launch workload, where plan launch
// assignment also has to be order-independent.
func TestNVBitFIDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full campaigns")
	}
	dev := device.V100()
	run := func(workers int) *Result {
		return campaign(t, Config{
			Tool: NVBitFI, TotalFaults: 60, Workers: workers, Seed: 4242,
		}, "FHOTSPOT", kernels.HotspotBuilder(isa.F32), dev)
	}
	a, b := run(1), run(8)
	if a.SDC != b.SDC || a.DUE != b.DUE || a.Masked != b.Masked || a.Injected != b.Injected {
		t.Fatalf("workers=1 gave SDC/DUE/Masked %d/%d/%d of %d, workers=8 gave %d/%d/%d of %d",
			a.SDC, a.DUE, a.Masked, a.Injected, b.SDC, b.DUE, b.Masked, b.Injected)
	}
	if a.Patterns != b.Patterns {
		t.Fatalf("pattern ledgers differ across worker counts:\n1: %+v\n8: %+v", a.Patterns, b.Patterns)
	}
}

// TestGoldenTimelinesRepeatable pins the other half of the telemetry
// determinism contract: two independently built runners produce byte-
// identical golden residency timelines (the golden run is serial and
// samples without consuming campaign RNG).
func TestGoldenTimelinesRepeatable(t *testing.T) {
	dev := device.V100()
	build := func() []sim.Timeline {
		r := testRunner(t, "FHOTSPOT", kernels.HotspotBuilder(isa.F32), dev, asm.O2)
		var tls []sim.Timeline
		for _, p := range r.GoldenProfiles() {
			tls = append(tls, p.Timeline)
		}
		return tls
	}
	a, b := build(), build()
	if len(a) == 0 || len(a[0].Buckets) == 0 {
		t.Fatal("golden profiles must carry residency timelines")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("golden residency timelines differ across repeated builds")
	}
}
