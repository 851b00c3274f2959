package faultinj

import (
	"fmt"
	"slices"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/stats"
)

// drawnPlans renders the first plans of every draw path on one workload
// as "path launch trigger bit" lines: SASSIFI's stratified IOV, IOA,
// PRED and GPR plans, NVBitFI's class-split plans, the adaptive
// ClassSampler and the two-level sites. Each line is a pure function of
// the golden profile and the seed.
func drawnPlans(t *testing.T, name string, build kernels.Builder, dev *device.Device) []string {
	t.Helper()
	var out []string
	add := func(path string, launch int, trigger uint64, bit int) {
		out = append(out, fmt.Sprintf("%s %d %d %d", path, launch, trigger, bit))
	}
	o1 := testRunner(t, name, build, dev, Sassifi.OptLevel())
	perMode := map[Mode]int{}
	for _, p := range buildPlans(Config{Tool: Sassifi, FaultsPerClass: 2}, o1, stats.NewRNG(0x1437, 5)) {
		if perMode[p.mode]++; perMode[p.mode] <= 4 {
			add("SASSIFI/"+p.mode.String()+"/"+p.class.String(), p.launch, p.fault.TriggerIndex, p.fault.Bit)
		}
	}

	o2 := testRunner(t, name, build, dev, NVBitFI.OptLevel())
	for i, p := range buildPlans(Config{Tool: NVBitFI, TotalFaults: 6}, o2, stats.NewRNG(0x1437, 5)) {
		if i < 4 {
			add("NVBitFI/"+p.class.String(), p.launch, p.fault.TriggerIndex, p.fault.Bit)
		}
	}
	for _, class := range []isa.Class{isa.ClassFMA, isa.ClassLDST} {
		s, ok := NewClassSampler(o2, NVBitFI, class)
		if !ok {
			t.Fatalf("%s: no %s population", name, class)
		}
		for i := uint64(0); i < 3; i++ {
			p, launch := s.Plan(9, i)
			add("sampler/"+class.String(), launch, p.TriggerIndex, p.Bit)
		}
	}
	sites := twoLevelSites(TwoLevelConfig{Tool: NVBitFI}, o2, 64)
	for _, si := range []int{0, 1, len(sites) - 1} {
		for j := 0; j < 2; j++ {
			p, launch := sites[si].plan(13, si, j)
			add(fmt.Sprintf("twolevel/%d/%s", si, sites[si].op), launch, p.TriggerIndex, p.Bit)
		}
	}
	return out
}

// TestPlansPinned pins the sampled plans of every draw path to literals,
// so a refactor of the site populations that moves a single draw — a
// different launch, trigger index or bit — fails here before it drifts
// any campaign artifact.
func TestPlansPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build kernels.Builder
		want  []string
	}{
		{"FMXM", kernels.MxMBuilder(isa.F32), []string{
			"SASSIFI/IOV/FMA 0 7857 30",
			"SASSIFI/IOV/FMA 0 17684 50",
			"SASSIFI/IOV/INT 0 435642 13",
			"SASSIFI/IOV/INT 0 220372 15",
			"SASSIFI/IOA/FMA 0 28005 14",
			"SASSIFI/IOA/INT 0 60856 15",
			"SASSIFI/IOA/LDST 0 103898 3",
			"SASSIFI/IOA/OTHERS 0 86222 33",
			"SASSIFI/PRED/INT 0 16731 57",
			"SASSIFI/PRED/INT 0 8291 15",
			"SASSIFI/GPR/OTHERS 0 664309 31",
			"SASSIFI/GPR/OTHERS 0 697265 19",
			"NVBitFI/FMA 0 7857 30",
			"NVBitFI/INT 0 54896 50",
			"NVBitFI/INT 0 329495 13",
			"NVBitFI/INT 0 166677 15",
			"sampler/FMA 0 88405 4",
			"sampler/FMA 0 98091 46",
			"sampler/FMA 0 85994 24",
			"sampler/LDST 0 166347 61",
			"sampler/LDST 0 46468 61",
			"sampler/LDST 0 56870 17",
			"twolevel/0/FFMA 0 19577 57",
			"twolevel/0/FFMA 0 84548 56",
			"twolevel/1/IADD 0 42192 11",
			"twolevel/1/IADD 0 176643 59",
			"twolevel/5/S2R 0 6807 59",
			"twolevel/5/S2R 0 341 2",
		}},
		{"FGAUSSIAN", kernels.GaussianBuilder(), []string{
			"SASSIFI/IOV/MUL 1 343 30",
			"SASSIFI/IOV/MUL 3 203 50",
			"SASSIFI/IOV/FMA 31 79 13",
			"SASSIFI/IOV/FMA 9 341 15",
			"SASSIFI/IOA/MUL 9 289 3",
			"SASSIFI/IOA/FMA 15 209 33",
			"SASSIFI/IOA/INT 3 2329 57",
			"SASSIFI/IOA/LDST 1 1388 15",
			"SASSIFI/PRED/INT 9 706 21",
			"SASSIFI/PRED/INT 17 848 21",
			"SASSIFI/GPR/OTHERS 21 1056 19",
			"SASSIFI/GPR/OTHERS 29 5443 0",
			"NVBitFI/MUL 1 343 30",
			"NVBitFI/FMA 3 204 50",
			"NVBitFI/INT 37 138 13",
			"NVBitFI/INT 11 2798 15",
			"sampler/FMA 21 22 4",
			"sampler/FMA 25 86 46",
			"sampler/FMA 19 140 24",
			"sampler/LDST 21 325 61",
			"sampler/LDST 5 242 61",
			"sampler/LDST 5 1142 17",
			"twolevel/0/FMUL 18 5 27",
			"twolevel/0/FMUL 18 12 23",
			"twolevel/1/IADD 4 29 11",
			"twolevel/1/IADD 24 7 59",
			"twolevel/12/S2R 37 1284 9",
			"twolevel/12/S2R 3 253 61",
		}},
	} {
		got := drawnPlans(t, tc.name, tc.build, device.K40c())
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s plans moved:\n got %#v\nwant %#v", tc.name, got, tc.want)
		}
	}
}
