package faultinj

import (
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
)

func adaptiveTestRunner(t *testing.T) *kernels.Runner {
	t.Helper()
	return testRunner(t, "FMXM", kernels.MxMBuilder(isa.F32), device.V100(), NVBitFI.OptLevel())
}

// The sampler's whole contract: Plan(seed, i) is a pure function, so
// drawing indices in any order, or re-drawing them after a resume,
// reproduces the same plans.
func TestClassSamplerPure(t *testing.T) {
	r := adaptiveTestRunner(t)
	classes := AdaptiveClasses(r, NVBitFI)
	if len(classes) == 0 {
		t.Fatal("FMXM has no injectable classes under NVBitFI")
	}
	for _, class := range classes {
		s, ok := NewClassSampler(r, NVBitFI, class)
		if !ok {
			t.Fatalf("class %s vanished between AdaptiveClasses and NewClassSampler", class)
		}
		// Forward pass, then the same indices in reverse on a fresh
		// sampler.
		s2, _ := NewClassSampler(r, NVBitFI, class)
		type drawn struct {
			trigger uint64
			bit     int
			launch  int
		}
		fwd := make([]drawn, 64)
		for i := range fwd {
			p, l := s.Plan(7, uint64(i))
			fwd[i] = drawn{p.TriggerIndex, p.Bit, l}
		}
		for i := len(fwd) - 1; i >= 0; i-- {
			p, l := s2.Plan(7, uint64(i))
			if p.TriggerIndex != fwd[i].trigger || p.Bit != fwd[i].bit || l != fwd[i].launch {
				t.Fatalf("%s plan %d not reproducible: (%d,%d,%d) then (%d,%d,%d)",
					class, i, fwd[i].trigger, fwd[i].bit, fwd[i].launch,
					p.TriggerIndex, p.Bit, l)
			}
		}
	}
}

func TestClassSamplerSeedsDisjoint(t *testing.T) {
	r := adaptiveTestRunner(t)
	class := AdaptiveClasses(r, NVBitFI)[0]
	s, _ := NewClassSampler(r, NVBitFI, class)
	same := 0
	const n = 128
	for i := uint64(0); i < n; i++ {
		a, _ := s.Plan(1, i)
		b, _ := s.Plan(2, i)
		if a.TriggerIndex == b.TriggerIndex && a.Bit == b.Bit {
			same++
		}
	}
	// Two seeds agreeing on more than a stray coincidence means the
	// seed word is not actually reaching the stream.
	if same > n/16 {
		t.Fatalf("seeds 1 and 2 produced %d/%d identical plans", same, n)
	}
}

func TestClassSamplerSitesInPopulation(t *testing.T) {
	r := adaptiveTestRunner(t)
	for _, class := range AdaptiveClasses(r, NVBitFI) {
		s, _ := NewClassSampler(r, NVBitFI, class)
		perLaunch := r.LaunchLaneOps(classFilter(NVBitFI, class))
		for i := uint64(0); i < 256; i++ {
			p, l := s.Plan(3, i)
			if l < 0 || l >= len(perLaunch) {
				t.Fatalf("%s plan %d: launch %d out of range", class, i, l)
			}
			if p.TriggerIndex >= perLaunch[l] {
				t.Fatalf("%s plan %d: trigger %d beyond launch %d population %d",
					class, i, p.TriggerIndex, l, perLaunch[l])
			}
			if p.Bit < 0 || p.Bit > 63 {
				t.Fatalf("%s plan %d: bit %d", class, i, p.Bit)
			}
		}
	}
}

func TestAdaptiveClassesMatchPopulation(t *testing.T) {
	r := adaptiveTestRunner(t)
	listed := make(map[isa.Class]bool)
	for _, c := range AdaptiveClasses(r, NVBitFI) {
		listed[c] = true
	}
	for c := isa.Class(0); c < isa.ClassCount; c++ {
		var total uint64
		for _, n := range r.LaunchLaneOps(classFilter(NVBitFI, c)) {
			total += n
		}
		if (total > 0) != listed[c] {
			t.Fatalf("class %s: population %d but listed=%v", c, total, listed[c])
		}
	}
}

func TestClassByNameRoundTrip(t *testing.T) {
	for c := isa.Class(0); c < isa.ClassCount; c++ {
		got, err := ClassByName(c.String())
		if err != nil || got != c {
			t.Fatalf("ClassByName(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ClassByName("NOSUCH"); err == nil {
		t.Fatal("ClassByName accepted an unknown label")
	}
}
