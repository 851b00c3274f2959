package analysis

import (
	"math"
	"testing"

	"gpurel/internal/isa"
)

// Extra constructors for the bit-level tests. The shared helpers in
// analysis_test.go build constant-valued programs; these produce
// genuinely unknown values (loads) and immediate operands.

func ldgT(dst, addr isa.Reg) isa.Instr {
	in := raw(isa.OpLDG, dst, addr)
	in.Srcs[1] = isa.Imm(0)
	return in
}

func lopT(logic isa.LogicOp, dst, a isa.Reg, b isa.Operand) isa.Instr {
	in := raw(isa.OpLOP, dst, a)
	in.Logic = logic
	in.Srcs[1] = b
	return in
}

func s2rT(dst isa.Reg, sr isa.SpecialReg) isa.Instr {
	in := raw(isa.OpS2R, dst)
	in.SReg = sr
	return in
}

func isetpImm(p isa.PredReg, cmp isa.CmpOp, a isa.Reg, imm int32) isa.Instr {
	in := raw(isa.OpISETP, isa.RZ, a)
	in.DstP = p
	in.Cmp = cmp
	in.Srcs[1] = isa.Imm(uint32(imm))
	return in
}

// TestKnownBits exercises the lattice primitives directly.
func TestKnownBits(t *testing.T) {
	c := kbConst(0xf0, 32)
	if !c.IsConst() || c.Const() != 0xf0 {
		t.Fatalf("kbConst(0xf0) = %s, want constant 0xf0", c)
	}
	a := kbTop(32)
	and := kbAnd(a, c)
	if !and.ZeroAt(0) || !and.ZeroAt(8) || and.ZeroAt(4) {
		t.Errorf("top AND 0xf0 = %s: want zeros outside bits 4..7 only", and)
	}
	sh := kbShl(c, 4)
	if !sh.IsConst() || sh.Const() != 0xf00 {
		t.Errorf("0xf0 << 4 = %s, want constant 0xf00", sh)
	}
	add := kbAdd(kbConst(0x10, 32), kbConst(0x22, 32))
	if !add.IsConst() || add.Const() != 0x32 {
		t.Errorf("0x10 + 0x22 = %s, want constant 0x32", add)
	}
	m := kbMeet(kbConst(3, 32), kbConst(1, 32))
	if !m.OneAt(0) || m.OneAt(1) || m.ZeroAt(1) || m.ZeroAt(0) {
		t.Errorf("meet(3,1) = %s: bit 0 stays one, bit 1 becomes unknown", m)
	}
}

// TestValueRange exercises the interval primitives.
func TestValueRange(t *testing.T) {
	a := ValueRange{0, 255}
	if got := rAdd(a, rConst(1)); got.Lo != 1 || got.Hi != 256 {
		t.Errorf("[0,255]+1 = %s", got)
	}
	if got := rMul(a, rConst(4)); got.Lo != 0 || got.Hi != 1020 {
		t.Errorf("[0,255]*4 = %s", got)
	}
	if got := rShr(ValueRange{-1, 5}, 4); got.Lo != 0 || got.Hi != int64(1)<<28-1 {
		t.Errorf("possibly-negative >>4 = %s, want [0,2^28-1]", got)
	}
	if got := rAdd(rFull(), rConst(1)); !got.IsFull() {
		t.Errorf("full+1 = %s, want full (wrap widens)", got)
	}
	if always, known := cmpAlways(isa.CmpLT, a, rConst(1024)); !known || !always {
		t.Errorf("[0,255] < 1024 should be provably true")
	}
	if _, known := cmpAlways(isa.CmpLT, a, rConst(100)); known {
		t.Errorf("[0,255] < 100 should be unknown")
	}
	if always, known := cmpAlways(isa.CmpGE, rConst(7), rConst(7)); !known || !always {
		t.Errorf("7 >= 7 should be provably true")
	}
}

// TestBandOf pins the width-relative band layout the cross-validation
// compares at.
func TestBandOf(t *testing.T) {
	cases := []struct {
		bit, width int
		want       BitBand
	}{
		{0, 32, BandLow}, {9, 32, BandLow},
		{10, 32, BandMid}, {19, 32, BandMid},
		{20, 32, BandHigh}, {30, 32, BandHigh},
		{31, 32, BandSign},
		{0, 64, BandLow}, {63, 64, BandSign},
		{0, 1, BandSign},
	}
	for _, c := range cases {
		if got := BandOf(c.bit, c.width); got != c.want {
			t.Errorf("BandOf(%d,%d) = %s, want %s", c.bit, c.width, got, c.want)
		}
	}
}

// TestForwardFactsLaunchGeometry checks the S2R seeding and transfer
// through the canonical global-index idiom.
func TestForwardFactsLaunchGeometry(t *testing.T) {
	p := prog("gidx",
		s2rT(rr(0), isa.SrTidX),                       // 0: [0,255]
		s2rT(rr(1), isa.SrCtaidX),                     // 1: [0,3]
		s2rT(rr(2), isa.SrNtidX),                      // 2: 256
		raw(isa.OpIMAD, rr(3), rr(1), rr(2)),          // 3: ctaid*ntid+R0? srcs: R1,R2,RZ
		iadd(rr(4), rr(3), rr(0)),                     // 4: global index
		lopT(isa.LopAND, rr(5), rr(4), isa.Imm(0xff)), // 5
		stg(rr(5), rr(4)),                             // 6: keep things live
		exit(),                                        // 7
	)
	r := AnalyzeLaunch(p, &Bounds{GridX: 4, GridY: 1, BlockThreads: 256})
	if f := r.Facts[0].R; f.Lo != 0 || f.Hi != 255 {
		t.Errorf("tid range = %s, want [0,255]", f)
	}
	if f := r.Facts[2]; !f.KB.IsConst() || f.KB.Const() != 256 {
		t.Errorf("ntid = %s, want constant 256", f.KB)
	}
	if f := r.Facts[4].R; f.Lo != 0 || f.Hi != 1023 {
		t.Errorf("global index range = %s, want [0,1023]", f)
	}
	if f := r.Facts[5]; !f.KB.ZeroAt(8) || f.R.Hi != 0xff {
		t.Errorf("masked index = kb %s r %s, want high bits zero, Hi 255", f.KB, f.R)
	}
	// Without bounds the specials stay non-negative but unbounded.
	r = Analyze(p)
	if f := r.Facts[0].R; f.Lo != 0 || f.Hi == 255 {
		t.Errorf("unbounded tid range = %s, want [0, large]", f)
	}
}

// TestKnownBitsProofKillsInstruction is the live-to-dead satellite: a
// loaded value consumed only through AND with a proven-zero mask is
// architecturally dead under the bit model, although a generic
// PassAndOr factor would keep it live — and the whole-program AVF moves
// accordingly.
func TestKnownBitsProofKillsInstruction(t *testing.T) {
	p := prog("andzero",
		movi(rr(1)),                              // 0: address
		ldgT(rr(0), rr(1)),                       // 1: unknown value
		movi(rr(2)),                              // 2: zero mask
		lopT(isa.LopAND, rr(3), rr(0), isa.R(2)), // 3: R3 = R0 & 0 = 0
		stg(rr(1), rr(3)),                        // 4: stored (live)
		exit(),                                   // 5
	)
	r := Analyze(p)

	// Every bit of the load is ANDed with a proven zero.
	if v := &r.ACEVec[1]; !v.Dead() {
		t.Fatalf("bit ACE of the masked load = %.3f, want 0 (proven masked)", v.MeanSDC()+v.MeanDUE())
	}
	// The AND's own result is provably constant but still stored, so it
	// stays live.
	if r.ACEVec[3].Dead() {
		t.Fatalf("stored AND result must stay live")
	}

	// Whole-program AVF: the dead load is one of the four GPR-writing
	// sites, and the estimate counts it dead.
	if est := r.Estimate(nil, nil); est.DeadFraction < 0.25-1e-9 {
		t.Errorf("DeadFraction %.3f should count the proven-dead load (>= 0.25)", est.DeadFraction)
	}

	// The proof surfaces as a constant-result finding on the AND (its
	// value input is not constant, its output is).
	found := false
	for _, f := range r.Warnings() {
		if f.Kind == KindConstResult && f.Instr == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("want a %s finding on the AND, got %v", KindConstResult, kinds(r.Warnings()))
	}
}

// TestDeadBitSpanFinding: masking a load down to its low byte leaves a
// provable 24-bit dead span in the load's destination.
func TestDeadBitSpanFinding(t *testing.T) {
	p := prog("lowbyte",
		movi(rr(1)),        // 0: address
		ldgT(rr(0), rr(1)), // 1
		lopT(isa.LopAND, rr(2), rr(0), isa.Imm(0xff)), // 2
		stg(rr(1), rr(2)), // 3
		exit(),            // 4
	)
	r := Analyze(p)
	v := &r.ACEVec[1]
	if start, length := v.LongestDeadSpan(); start != 8 || length != 24 {
		t.Fatalf("dead span = (%d,%d), want bits 8..31", start, length)
	}
	found := false
	for _, f := range r.Warnings() {
		if f.Kind == KindDeadBitSpan && f.Instr == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("want a %s finding on the load, got %v", KindDeadBitSpan, kinds(r.Warnings()))
	}
}

// TestRangeDeadBranchFinding: a guard proven by launch-geometry ranges
// (not constant folding) flags the dead arm.
func TestRangeDeadBranchFinding(t *testing.T) {
	p := prog("guard",
		s2rT(rr(0), isa.SrTidX),                 // 0
		movi(rr(1)),                             // 1: address
		isetpImm(pp(0), isa.CmpLT, rr(0), 1024), // 2: always true for 256 threads
		ssy(7),                                  // 3
		braIf(pp(0), true, 6),                   // 4: @!P0 never taken
		stg(rr(1), rr(0)),                       // 5
		syncInstr(),                             // 6
		exit(),                                  // 7
	)
	r := AnalyzeLaunch(p, &Bounds{GridX: 1, GridY: 1, BlockThreads: 256})
	found := false
	for _, f := range r.Warnings() {
		if f.Kind == KindRangeDeadBranch && f.Instr == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("want a %s finding on the guard branch, got %v", KindRangeDeadBranch, kinds(r.Warnings()))
	}
	// Without launch bounds the compare is not provable: no finding.
	r = Analyze(p)
	for _, f := range r.Warnings() {
		if f.Kind == KindRangeDeadBranch {
			t.Errorf("unbounded analysis proved the guard: %s", f.Msg)
		}
	}
}

// TestEstimateNilWeightsUniformParity: a uniform OpWeights profile (one
// lane-op per static site) must reproduce the nil-weights estimate
// exactly, bands included.
func TestEstimateNilWeightsUniformParity(t *testing.T) {
	p := prog("parity",
		movi(rr(1)),
		ldgT(rr(0), rr(1)),
		iadd(rr(2), rr(0), rr(0)),
		imul(rr(3), rr(2), rr(2)),
		lopT(isa.LopAND, rr(4), rr(3), isa.Imm(0xffff)),
		stg(rr(1), rr(4)),
		exit(),
	)
	r := Analyze(p)
	perOp := make(map[isa.Op]uint64)
	for i := range p.Instrs {
		perOp[p.Instrs[i].Op]++
	}
	a := r.Estimate(nil, nil)
	b := r.Estimate(r.OpWeights(perOp), nil)
	if a.Sites != b.Sites {
		t.Fatalf("sites %d vs %d", a.Sites, b.Sites)
	}
	near := func(x, y float64) bool { return math.Abs(x-y) < 1e-12 }
	if !near(a.SDC, b.SDC) || !near(a.DUE, b.DUE) || !near(a.DeadFraction, b.DeadFraction) {
		t.Errorf("uniform-weight estimate diverges: (%.6f,%.6f,%.6f) vs (%.6f,%.6f,%.6f)",
			a.SDC, a.DUE, a.DeadFraction, b.SDC, b.DUE, b.DeadFraction)
	}
	for k := range a.Band {
		if !near(a.Band[k].SDC, b.Band[k].SDC) || !near(a.Band[k].DUE, b.Band[k].DUE) {
			t.Errorf("band %s diverges: (%.6f,%.6f) vs (%.6f,%.6f)",
				BitBand(k), a.Band[k].SDC, a.Band[k].DUE, b.Band[k].SDC, b.Band[k].DUE)
		}
	}
	for b64 := 0; b64 < 64; b64++ {
		if !near(a.BitSDC[b64], b.BitSDC[b64]) || !near(a.BitDUE[b64], b.BitDUE[b64]) {
			t.Errorf("bit %d profile diverges", b64)
		}
	}
}
