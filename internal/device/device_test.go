package device

import (
	"testing"

	"gpurel/internal/isa"
)

func TestK40cParameters(t *testing.T) {
	d := K40c()
	if d.NumSMs != 15 {
		t.Errorf("K40c SMs = %d, want 15", d.NumSMs)
	}
	if got := d.NumSMs * d.UnitsPerSM[UnitFP32]; got != 2880 {
		t.Errorf("K40c CUDA cores = %d, want 2880", got)
	}
	if !d.SharedINTFP {
		t.Error("Kepler integer math must share the FP32 datapath")
	}
	if d.HasTensor || d.HasFP16 {
		t.Error("Kepler has no tensor cores or FP16 units")
	}
}

func TestV100Parameters(t *testing.T) {
	d := V100()
	if d.NumSMs != 80 {
		t.Errorf("V100 SMs = %d, want 80", d.NumSMs)
	}
	if d.UnitsPerSM[UnitFP32] != 64 || d.UnitsPerSM[UnitINT] != 64 ||
		d.UnitsPerSM[UnitFP64] != 32 || d.UnitsPerSM[UnitTensor] != 8 {
		t.Errorf("V100 unit mix wrong: %v (paper: 64 FP32, 64 INT32, 32 FP64, 8 tensor per SM)", d.UnitsPerSM)
	}
	if !d.HasTensor || !d.HasFP16 {
		t.Error("Volta must expose FP16 and tensor cores")
	}
}

func TestUnitForMapping(t *testing.T) {
	k, v := K40c(), V100()
	if k.UnitFor(isa.OpIADD) != UnitFP32 {
		t.Error("Kepler IADD should execute on FP32 cores")
	}
	if v.UnitFor(isa.OpIADD) != UnitINT {
		t.Error("Volta IADD should execute on dedicated INT cores")
	}
	if v.UnitFor(isa.OpHFMA) != UnitFP16 {
		t.Error("Volta HFMA should use the FP16 path")
	}
	if v.UnitFor(isa.OpHMMA) != UnitTensor {
		t.Error("HMMA should use the tensor cores")
	}
	if k.UnitFor(isa.OpLDG) != UnitLDST || v.UnitFor(isa.OpMUFU) != UnitSFU {
		t.Error("LDST/SFU mapping wrong")
	}
	if v.UnitFor(isa.OpDFMA) != UnitFP64 {
		t.Error("DFMA should use the FP64 pool")
	}
}

func TestLatencyOrdering(t *testing.T) {
	for _, d := range []*Device{K40c(), V100()} {
		if d.Latency(isa.OpLDG) <= d.Latency(isa.OpLDS) {
			t.Errorf("%s: global latency must exceed shared", d.Name)
		}
		if d.Latency(isa.OpLDS) <= d.Latency(isa.OpFADD) {
			t.Errorf("%s: shared latency must exceed ALU", d.Name)
		}
		if d.Latency(isa.OpDFMA) < d.Latency(isa.OpFFMA) {
			t.Errorf("%s: FP64 latency must not be below FP32", d.Name)
		}
	}
	if V100().Latency(isa.OpFADD) >= K40c().Latency(isa.OpFADD) {
		t.Error("Volta ALU latency should be below Kepler's")
	}
}

func TestIssueSlots(t *testing.T) {
	k, v := K40c(), V100()
	if got := k.IssueSlots(UnitFP32); got != 6 {
		t.Errorf("Kepler FP32 slots = %d, want 6 (192/32)", got)
	}
	if got := v.IssueSlots(UnitFP32); got != 2 {
		t.Errorf("Volta FP32 slots = %d, want 2 (64/32)", got)
	}
	if got := v.IssueSlots(UnitFP64); got != 1 {
		t.Errorf("Volta FP64 slots = %d, want 1", got)
	}
	if got := v.IssueSlots(UnitTensor); got != 1 {
		t.Errorf("tensor slots = %d, want 1", got)
	}
	if got := k.IssueSlots(UnitTensor); got != 0 {
		t.Errorf("Kepler tensor slots = %d, want 0", got)
	}
}

func TestOccupancyFullBlocks(t *testing.T) {
	d := K40c()
	occ, err := d.OccupancyFor(256, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 256 threads * 32 regs = 8192 regs/block = the whole (scaled) file;
	// one 8-warp block fills the SM: full occupancy.
	if occ.BlocksPerSM != 1 || occ.ActiveWarpsPerSM != d.MaxWarpsPerSM {
		t.Fatalf("occupancy = %+v, want 1 block / %d warps", occ, d.MaxWarpsPerSM)
	}
	if occ.TheoreticalOcc != 1.0 {
		t.Fatalf("theoretical occupancy = %g, want 1", occ.TheoreticalOcc)
	}
}

func TestOccupancyRegisterLimited(t *testing.T) {
	d := V100()
	occ, err := d.OccupancyFor(32, 255, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 32 * 255 = 8160 regs/block -> 1 block/SM, 1 warp of 8 -> 12.5%,
	// the regime of the register-hungry GEMM kernels in Table I.
	if occ.BlocksPerSM != 1 || occ.LimitedBy != "registers" {
		t.Fatalf("occupancy = %+v, want register-limited single block", occ)
	}
	if occ.TheoreticalOcc != 0.125 {
		t.Fatalf("occ = %g, want 0.125", occ.TheoreticalOcc)
	}
}

func TestOccupancySharedLimited(t *testing.T) {
	d := K40c()
	occ, err := d.OccupancyFor(64, 16, 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	if occ.BlocksPerSM != 3 || occ.LimitedBy != "shared memory" {
		t.Fatalf("occupancy = %+v, want 3 blocks limited by shared memory", occ)
	}
}

func TestOccupancyErrors(t *testing.T) {
	d := K40c()
	if _, err := d.OccupancyFor(0, 10, 0); err == nil {
		t.Error("zero block size should fail")
	}
	if _, err := d.OccupancyFor(128, 300, 0); err == nil {
		t.Error("register overflow should fail")
	}
	if _, err := d.OccupancyFor(128, 10, 1<<20); err == nil {
		t.Error("shared overflow should fail")
	}
}

func TestSiliconOrderings(t *testing.T) {
	k := keplerSilicon()
	// Kepler: INT ~4x FP32 (shared datapath inefficiency).
	if r := k.Sigma(isa.OpIADD) / k.Sigma(isa.OpFADD); r < 3.5 || r > 4.5 {
		t.Errorf("Kepler IADD/FADD sigma ratio = %g, want ~4", r)
	}
	// IMUL ~30% above IADD, IMAD above IMUL.
	if r := k.Sigma(isa.OpIMUL) / k.Sigma(isa.OpIADD); r < 1.2 || r > 1.4 {
		t.Errorf("IMUL/IADD = %g, want ~1.3", r)
	}
	if k.Sigma(isa.OpIMAD) <= k.Sigma(isa.OpIMUL) {
		t.Error("IMAD must exceed IMUL")
	}

	v := voltaSilicon()
	// Precision ordering within each operator.
	for _, tri := range [][3]isa.Op{
		{isa.OpHADD, isa.OpFADD, isa.OpDADD},
		{isa.OpHMUL, isa.OpFMUL, isa.OpDMUL},
		{isa.OpHFMA, isa.OpFFMA, isa.OpDFMA},
	} {
		if !(v.Sigma(tri[0]) < v.Sigma(tri[1]) && v.Sigma(tri[1]) < v.Sigma(tri[2])) {
			t.Errorf("Volta precision ordering violated for %v", tri)
		}
	}
	// FMA > MUL > ADD within a precision.
	if !(v.Sigma(isa.OpFFMA) > v.Sigma(isa.OpFMUL) && v.Sigma(isa.OpFMUL) > v.Sigma(isa.OpFADD)) {
		t.Error("Volta operator-complexity ordering violated")
	}
	// Tensor core: 16 MACs of array held busy per retired lane-op, at
	// ~9x (HMMA) / ~12x (FMMA) a scalar FMA's per-MAC sensitivity.
	if r := v.Sigma(isa.OpHMMA) / v.Sigma(isa.OpFFMA); r < 16*8 || r > 16*10 {
		t.Errorf("HMMA/FFMA = %g, want ~144", r)
	}
	if r := v.Sigma(isa.OpFMMA) / v.Sigma(isa.OpHMMA); r < 1.2 || r > 1.5 {
		t.Errorf("FMMA/HMMA = %g, want ~1.33", r)
	}
	// Process node: Kepler RF ~10x Volta RF per bit.
	if r := k.RFBitSigma / v.RFBitSigma; r < 8 || r > 12 {
		t.Errorf("Kepler/Volta RF bit sigma = %g, want ~10", r)
	}
}

func TestSiliconDefaults(t *testing.T) {
	k := keplerSilicon()
	if k.Sigma(isa.OpMOV) != k.DefaultOpSigma {
		t.Error("unlisted opcode should fall back to default sigma")
	}
	if k.MBUProb != 0.02 {
		t.Errorf("MBU probability = %g, want 0.02 (paper §V-A)", k.MBUProb)
	}
	for h := HiddenResource(0); h < HiddenCount; h++ {
		s := k.Hidden[h]
		if s.PSDC+s.PDUE > 1 {
			t.Errorf("%s outcome probabilities exceed 1", h)
		}
		if s.PDUE < s.PSDC {
			t.Errorf("%s: hidden-resource strikes must be DUE-dominated", h)
		}
	}
}

func TestByName(t *testing.T) {
	for _, tc := range []struct {
		names []string
		want  *Device
	}{
		{[]string{"kepler", "k40c", "Tesla K40c", " KEPLER ", "K40C"}, K40c()},
		{[]string{"volta", "v100", "Tesla V100", "Volta", "tesla v100\n"}, V100()},
		{[]string{"titanv", "Titan V", "TITANV"}, TitanV()},
	} {
		for _, name := range tc.names {
			d, err := ByName(name)
			if err != nil {
				t.Errorf("ByName(%q): %v", name, err)
				continue
			}
			if d.Name != tc.want.Name || d.NumSMs != tc.want.NumSMs {
				t.Errorf("ByName(%q) = %s, want %s", name, d.Name, tc.want.Name)
			}
		}
	}
	for _, name := range []string{"", "pascal", "k40", "tesla"} {
		if d, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) = %s, want an error", name, d.Name)
		}
	}
}
