package faultinj

import (
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
)

// Figure-4 shape tests: the AVF orderings the paper reports (§VI) must
// emerge from the injection campaigns.

func avfOf(t *testing.T, tool Tool, name string, b kernels.Builder, dev *device.Device, n int) *Result {
	t.Helper()
	return campaign(t, Config{
		Tool: tool, FaultsPerClass: n / 4, TotalFaults: n, Seed: 77,
	}, name, b, dev)
}

func TestFig4ShapeFloatVsIntegerAVF(t *testing.T) {
	if testing.Short() {
		t.Skip("injection shape test")
	}
	dev := device.K40c()
	// §VI: "Gaussian, LUD, MxM, and Lava have the highest AVF ... the
	// smaller AVFs come from integer applications: Quicksort, Mergesort,
	// CCL, and NW."
	fp := []struct {
		name string
		b    kernels.Builder
	}{
		{"FMXM", kernels.MxMBuilder(isa.F32)},
		{"FLAVA", kernels.LavaBuilder(isa.F32)},
	}
	intc := []struct {
		name string
		b    kernels.Builder
	}{
		{"CCL", kernels.CCLBuilder()},
		{"MERGESORT", kernels.MergesortBuilder()},
	}
	var fpSum, intSum float64
	for _, c := range fp {
		fpSum += avfOf(t, NVBitFI, c.name, c.b, dev, 250).SDCAVF.P
	}
	for _, c := range intc {
		intSum += avfOf(t, NVBitFI, c.name, c.b, dev, 250).SDCAVF.P
	}
	if fpSum/2 <= intSum/2 {
		t.Errorf("floating-point codes should out-AVF integer codes: fp %.3f vs int %.3f",
			fpSum/2, intSum/2)
	}
}

func TestFig4ShapeNVBitFIAboveSassifi(t *testing.T) {
	if testing.Short() {
		t.Skip("injection shape test")
	}
	dev := device.K40c()
	// §VI: averaged over the benchmarks, the NVBitFI AVF (modern
	// compiler, optimized SASS) is ~18% above SASSIFI's. Check the
	// direction over a small panel.
	panel := []struct {
		name string
		b    kernels.Builder
	}{
		{"FMXM", kernels.MxMBuilder(isa.F32)},
		{"FLAVA", kernels.LavaBuilder(isa.F32)},
		{"QUICKSORT", kernels.QuicksortBuilder()},
	}
	var sassifi, nvbitfi float64
	for _, c := range panel {
		sassifi += avfOf(t, Sassifi, c.name, c.b, dev, 280).SDCAVF.P
		nvbitfi += avfOf(t, NVBitFI, c.name, c.b, dev, 280).SDCAVF.P
	}
	if nvbitfi <= sassifi {
		t.Errorf("NVBitFI panel AVF %.3f should exceed SASSIFI's %.3f (optimized code has higher AVF)",
			nvbitfi/3, sassifi/3)
	}
}

func TestFig4ShapeCNNAVFIsLow(t *testing.T) {
	if testing.Short() {
		t.Skip("injection shape test")
	}
	dev := device.K40c()
	// §VI: CNN AVFs are extremely low (tolerance-aware SDC criterion);
	// matrix multiplication's is the highest.
	yolo := avfOf(t, NVBitFI, "FYOLOV3", kernels.YOLOBuilder(true, isa.F32), dev, 200)
	mxm := avfOf(t, NVBitFI, "FMXM", kernels.MxMBuilder(isa.F32), dev, 200)
	if yolo.SDCAVF.P >= mxm.SDCAVF.P/2 {
		t.Errorf("CNN AVF %.3f should be far below MxM's %.3f", yolo.SDCAVF.P, mxm.SDCAVF.P)
	}
}

func TestFig4ShapePrecisionIndependentAVF(t *testing.T) {
	if testing.Short() {
		t.Skip("injection shape test")
	}
	dev := device.V100()
	// §VI: Hotspot/Lava/MxM run the same kernel at all precisions, so
	// their SDC AVFs barely move between float and double (<4% in the
	// paper; allow sampling slack here).
	f := avfOf(t, NVBitFI, "FMXM", kernels.MxMBuilder(isa.F32), dev, 300).SDCAVF.P
	d := avfOf(t, NVBitFI, "DMXM", kernels.MxMBuilder(isa.F64), dev, 300).SDCAVF.P
	diff := f - d
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.15 {
		t.Errorf("MxM AVF should be precision-independent: F %.3f vs D %.3f", f, d)
	}
}
