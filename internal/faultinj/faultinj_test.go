package faultinj

import (
	"strings"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
)

func TestToolProperties(t *testing.T) {
	if Sassifi.OptLevel() == NVBitFI.OptLevel() {
		t.Fatal("the two tools must use different compiler pipelines")
	}
	if Sassifi.String() != "SASSIFI" || NVBitFI.String() != "NVBitFI" {
		t.Fatal("bad tool names")
	}
}

func TestParseTool(t *testing.T) {
	for _, tool := range []Tool{Sassifi, NVBitFI} {
		for _, name := range []string{tool.String(), strings.ToLower(tool.String()), " " + strings.ToUpper(tool.String()) + " "} {
			got, err := ParseTool(name)
			if err != nil || got != tool {
				t.Errorf("ParseTool(%q) = %v, %v; want %v", name, got, err, tool)
			}
		}
	}
	for _, name := range []string{"", "sasifi", "nvbit", "sassifi nvbitfi"} {
		if got, err := ParseTool(name); err == nil {
			t.Errorf("ParseTool(%q) = %v, want an error", name, got)
		}
	}
}

func TestNVBitFICannotInjectHalf(t *testing.T) {
	for _, op := range []isa.Op{isa.OpHADD, isa.OpHMUL, isa.OpHFMA, isa.OpHMMA} {
		if opInjectable(NVBitFI, op) {
			t.Errorf("NVBitFI must not inject into %s", op)
		}
		if !opInjectable(Sassifi, op) {
			t.Errorf("SASSIFI instruction-output mode covers %s", op)
		}
	}
	if opInjectable(NVBitFI, isa.OpSTG) {
		t.Error("NVBitFI only injects into GPR-writing instructions")
	}
	if !opInjectable(NVBitFI, isa.OpLDG) || !opInjectable(NVBitFI, isa.OpFADD) {
		t.Error("NVBitFI must inject into loads and float ops")
	}
}

func TestSassifiRejectsVolta(t *testing.T) {
	r := testRunner(t, "FMXM", kernels.MxMBuilder(isa.F32), device.V100(), Sassifi.OptLevel())
	if _, err := RunWithRunner(Config{Tool: Sassifi, FaultsPerClass: 1}, r); err == nil {
		t.Fatal("SASSIFI must reject Volta devices")
	}
}

func TestCampaignMxM(t *testing.T) {
	cfg := Config{Tool: NVBitFI, TotalFaults: 60, Seed: 1}
	res := campaign(t, cfg, "FMXM", kernels.MxMBuilder(isa.F32), device.K40c())
	if res.Injected < 55 {
		t.Fatalf("injected %d, want ~60", res.Injected)
	}
	if res.SDC+res.DUE+res.Masked != res.Injected {
		t.Fatal("outcome counts do not add up")
	}
	// MxM is the highest-AVF code in the paper: a fault in its dynamic
	// stream should propagate often.
	if res.SDCAVF.P < 0.2 {
		t.Fatalf("FMXM SDC AVF = %.2f, expected substantial propagation", res.SDCAVF.P)
	}
	for _, ca := range res.PerClass {
		if ca.SDC+ca.DUE+ca.Masked != ca.Injected {
			t.Fatal("per-class counts inconsistent")
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	cfg := Config{Tool: NVBitFI, TotalFaults: 30, Seed: 42, Workers: 2}
	r1 := campaign(t, cfg, "CCL", kernels.CCLBuilder(), device.K40c())
	r2 := campaign(t, cfg, "CCL", kernels.CCLBuilder(), device.K40c())
	if r1.SDC != r2.SDC || r1.DUE != r2.DUE || r1.Masked != r2.Masked {
		t.Fatalf("campaign not deterministic: %+v vs %+v", r1, r2)
	}
}

func TestSassifiCampaignModes(t *testing.T) {
	cfg := Config{Tool: Sassifi, FaultsPerClass: 20, Seed: 3}
	res := campaign(t, cfg, "FMXM", kernels.MxMBuilder(isa.F32), device.K40c())
	if res.PerMode[ModeIOV] == 0 || res.PerMode[ModeIOA] == 0 || res.PerMode[ModePred] == 0 {
		t.Fatalf("SASSIFI should exercise IOV, IOA and predicate modes: %+v", res.PerMode)
	}
}
