package kernels

import (
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"testing"
)

func TestSmokeMxMHotspot(t *testing.T) {
	for _, dt := range []isa.DType{isa.F32, isa.F64} {
		for _, opt := range []asm.OptLevel{asm.O1, asm.O2} {
			r, err := NewRunner("mxm", MxMBuilder(dt), device.K40c(), opt)
			if err != nil {
				t.Fatalf("mxm %v %v: %v", dt, opt, err)
			}
			p := r.GoldenProfiles()[0]
			t.Logf("MxM %v %v: cycles=%d laneops=%d ipc=%.2f occ=%.2f regs=?", dt, opt, p.Cycles, p.LaneOps, p.IPC(), p.AchievedOccupancy(device.K40c()))
		}
	}
	r, err := NewRunner("hotspot", HotspotBuilder(isa.F16), device.V100(), asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	var tot uint64
	for _, p := range r.GoldenProfiles() {
		tot += p.LaneOps
	}
	t.Logf("HHotspot total laneops=%d", tot)
}

func TestSmokeGEMM(t *testing.T) {
	for _, dt := range []isa.DType{isa.F16, isa.F32, isa.F64} {
		dev := device.V100()
		r, err := NewRunner("gemm", GEMMBuilder(dt), dev, asm.O2)
		if err != nil {
			t.Fatalf("gemm %v: %v", dt, err)
		}
		p := r.GoldenProfiles()[0]
		t.Logf("GEMM %v: cycles=%d laneops=%d ipc=%.2f occ=%.3f regs=%d", dt, p.Cycles, p.LaneOps, p.IPC(), p.AchievedOccupancy(dev), 0)
	}
	r, err := NewRunner("gemm", GEMMBuilder(isa.F32), device.K40c(), asm.O1)
	if err != nil {
		t.Fatal(err)
	}
	p := r.GoldenProfiles()[0]
	t.Logf("Kepler FGEMM: cycles=%d laneops=%d ipc=%.2f occ=%.3f", p.Cycles, p.LaneOps, p.IPC(), p.AchievedOccupancy(device.K40c()))
}

func TestSmokeGEMMMMA(t *testing.T) {
	for _, half := range []bool{true, false} {
		dev := device.V100()
		r, err := NewRunner("mma", GEMMMMABuilder(half), dev, asm.O2)
		if err != nil {
			t.Fatalf("mma half=%v: %v", half, err)
		}
		p := r.GoldenProfiles()[0]
		t.Logf("GEMM-MMA half=%v: cycles=%d laneops=%d ipc=%.2f occ=%.3f", half, p.Cycles, p.LaneOps, p.IPC(), p.AchievedOccupancy(dev))
	}
	if _, err := NewRunner("mma", GEMMMMABuilder(true), device.K40c(), asm.O1); err == nil {
		t.Fatal("MMA on Kepler should fail")
	}
}

func TestSmokeRemaining(t *testing.T) {
	dev := device.K40c()
	cases := []struct {
		name string
		b    Builder
	}{
		{"FLAVA", LavaBuilder(isa.F32)},
		{"FGAUSSIAN", GaussianBuilder()},
		{"FLUD", LUDBuilder()},
		{"NW", NWBuilder()},
		{"BFS", BFSBuilder()},
		{"CCL", CCLBuilder()},
		{"MERGESORT", MergesortBuilder()},
		{"QUICKSORT", QuicksortBuilder()},
	}
	for _, c := range cases {
		for _, opt := range []asm.OptLevel{asm.O1, asm.O2} {
			r, err := NewRunner(c.name, c.b, dev, opt)
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, opt, err)
			}
			var lane uint64
			var cyc int64
			for _, p := range r.GoldenProfiles() {
				lane += p.LaneOps
				cyc += p.Cycles
			}
			p0 := r.GoldenProfiles()[0]
			t.Logf("%s %v: launches=%d cycles=%d laneops=%d ipc=%.2f occ=%.3f",
				c.name, opt, len(r.GoldenProfiles()), cyc, lane, p0.IPC(), p0.AchievedOccupancy(dev))
		}
	}
}

func TestSmokeYOLO(t *testing.T) {
	cases := []struct {
		name string
		v3   bool
		dt   isa.DType
		dev  *device.Device
	}{
		{"FYOLOV2", false, isa.F32, device.K40c()},
		{"FYOLOV3", true, isa.F32, device.K40c()},
		{"HYOLOV3", true, isa.F16, device.V100()},
	}
	for _, c := range cases {
		r, err := NewRunner(c.name, YOLOBuilder(c.v3, c.dt), c.dev, asm.O2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var lane uint64
		var cyc int64
		var fma uint64
		for _, p := range r.GoldenProfiles() {
			lane += p.LaneOps
			cyc += p.Cycles
			for op, n := range p.PerOpLane {
				if op.ClassOf() == isa.ClassFMA {
					fma += n
				}
			}
		}
		t.Logf("%s: launches=%d cycles=%d laneops=%d fma%%=%.0f", c.name, len(r.GoldenProfiles()), cyc, lane, 100*float64(fma)/float64(lane))
	}
}
