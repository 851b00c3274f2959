package profiler

import (
	"math"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
)

func profileOf(t *testing.T, name string, b kernels.Builder, dev *device.Device) *CodeProfile {
	t.Helper()
	r, err := kernels.NewRunner(name, b, dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Profile(r)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestMixSumsToOne(t *testing.T) {
	cp := profileOf(t, "FMXM", kernels.MxMBuilder(isa.F32), device.K40c())
	var sum float64
	for _, f := range cp.Mix {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("mix sums to %g", sum)
	}
}

func TestGEMMSignature(t *testing.T) {
	// Table I: GEMM pairs the highest IPC with among the lowest
	// occupancies; the naive MxM has the higher occupancy.
	dev := device.K40c()
	gemm := profileOf(t, "FGEMM", kernels.GEMMBuilder(isa.F32), dev)
	mxm := profileOf(t, "FMXM", kernels.MxMBuilder(isa.F32), dev)
	if gemm.Occupancy >= mxm.Occupancy {
		t.Fatalf("GEMM occupancy %.2f should be below MxM's %.2f", gemm.Occupancy, mxm.Occupancy)
	}
	if gemm.IPC <= mxm.IPC {
		t.Fatalf("GEMM IPC %.2f should exceed MxM's %.2f", gemm.IPC, mxm.IPC)
	}
	if gemm.RegsPerThread <= mxm.RegsPerThread {
		t.Fatal("GEMM must be the register-hungry kernel")
	}
}

func TestNWIsUnderUtilized(t *testing.T) {
	// Table I: NW has the suite's lowest occupancy and a very low IPC.
	dev := device.K40c()
	nw := profileOf(t, "NW", kernels.NWBuilder(), dev)
	hotspot := profileOf(t, "FHOTSPOT", kernels.HotspotBuilder(isa.F32), dev)
	if nw.Occupancy >= hotspot.Occupancy {
		t.Fatalf("NW occupancy %.3f should be below Hotspot's %.3f", nw.Occupancy, hotspot.Occupancy)
	}
	if nw.Phi() >= hotspot.Phi() {
		t.Fatalf("NW phi %.3f should be below Hotspot's %.3f", nw.Phi(), hotspot.Phi())
	}
}

func TestMMAMixContainsMMAClass(t *testing.T) {
	cp := profileOf(t, "HGEMM-MMA", kernels.GEMMMMABuilder(true), device.V100())
	if cp.Mix[isa.ClassMMA] <= 0 {
		t.Fatal("tensor-core GEMM must show MMA instructions in Figure 1")
	}
}

func TestFMADominatedCodes(t *testing.T) {
	cp := profileOf(t, "FGEMM", kernels.GEMMBuilder(isa.F32), device.K40c())
	if cp.Mix[isa.ClassFMA] < 0.3 {
		t.Fatalf("GEMM FMA fraction %.2f too low", cp.Mix[isa.ClassFMA])
	}
	ccl := profileOf(t, "CCL", kernels.CCLBuilder(), device.K40c())
	if ccl.Mix[isa.ClassINT] < 0.3 {
		t.Fatalf("CCL INT fraction %.2f too low", ccl.Mix[isa.ClassINT])
	}
	if ccl.Mix[isa.ClassFMA] > 0.01 {
		t.Fatal("CCL is integer-only")
	}
}

func TestMemoryFootprintPositive(t *testing.T) {
	cp := profileOf(t, "NW", kernels.NWBuilder(), device.K40c())
	if cp.MemoryBytes <= 0 {
		t.Fatal("memory footprint must be positive")
	}
	if cp.SharedBytes <= 0 {
		t.Fatal("NW uses shared memory")
	}
}

func TestResidencyAndTimelines(t *testing.T) {
	cp := profileOf(t, "QUICKSORT", kernels.QuicksortBuilder(), device.K40c())
	r := cp.Residency
	if r.SchedUtil <= 0 || r.SchedUtil > 1 {
		t.Fatalf("scheduler utilization %.3f outside (0,1]", r.SchedUtil)
	}
	if r.WarpsPerSMCycle <= 0 || r.SMCyclesPerCycle <= 0 {
		t.Fatalf("occupancy residencies must be positive: %.3f warps, %.3f SMs",
			r.WarpsPerSMCycle, r.SMCyclesPerCycle)
	}
	if r.DivDepth <= 0 {
		t.Fatal("quicksort diverges; divergence-stack residency must be positive")
	}
	tls := cp.Timelines()
	if len(tls) != len(cp.Launches) {
		t.Fatalf("%d timelines for %d launches", len(tls), len(cp.Launches))
	}
	for i, tl := range tls {
		if len(tl.Buckets) == 0 || tl.BucketWidth <= 0 {
			t.Fatalf("launch %d: golden profile carries no timeline", i)
		}
	}
}

// TestAggregatesFiniteAcrossSuite pins the zero-cycle guard at the
// profiler layer: every aggregate a consumer reads must be finite even
// if some launch contributed empty counters.
func TestAggregatesFiniteAcrossSuite(t *testing.T) {
	cp := profileOf(t, "NW", kernels.NWBuilder(), device.K40c())
	for name, v := range map[string]float64{
		"IPC":       cp.IPC,
		"occupancy": cp.Occupancy,
		"sched":     cp.Residency.SchedUtil,
		"fetch":     cp.Residency.FetchRate,
		"div":       cp.Residency.DivDepth,
		"load":      cp.Residency.LoadDepth,
		"warps":     cp.Residency.WarpsPerSMCycle,
		"sms":       cp.Residency.SMCyclesPerCycle,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s is %v", name, v)
		}
	}
}

// TestProfileEntries profiles two workloads through profiler.Profile,
// one runner each, the way `gpurel profile` renders Table I.
func TestProfileEntries(t *testing.T) {
	for _, e := range []struct {
		name  string
		build kernels.Builder
	}{
		{"CCL", kernels.CCLBuilder()},
		{"BFS", kernels.BFSBuilder()},
	} {
		if cp := profileOf(t, e.name, e.build, device.K40c()); cp.Name != e.name {
			t.Fatalf("profile of %s is named %q", e.name, cp.Name)
		}
	}
}
