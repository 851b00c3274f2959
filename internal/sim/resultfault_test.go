package sim

import (
	"fmt"
	"math"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// Result-fault semantics: a value-bit, register-index, or predicate
// fault on one lane of one warp-instruction. The harness runs one
// hand-assembled instruction after a setup that loads distinct per-lane
// values into R0..R15 and P0..P6, then dumps every register and
// predicate of every lane, so a faulted run's whole architectural
// post-state can be compared with the golden one.

const (
	rfThreads = 32
	rfRegs    = 16 // NumRegs of every harness program
	rfPreds   = 7
	rfSlots   = rfRegs + rfPreds // dumped words per lane
	rfInWords = 16               // input words per lane
	rfAddr    = isa.Reg(12)      // dump address register; no row writes it
)

// rfRow is one instruction under test. width is the architectural
// result width the fault rules key on: 32 or 64 for a GPR result, 0 for
// SETPs (whose result is a predicate) and NOP.
type rfRow struct {
	name  string
	width int
	due   bool        // the instruction raises a DUE on its own
	pre   []isa.Instr // row-specific setup after the common one
	in    isa.Instr
}

func rfIsSETP(op isa.Op) bool {
	switch op {
	case isa.OpISETP, isa.OpFSETP, isa.OpDSETP, isa.OpHSETP:
		return true
	}
	return false
}

// rfInput is the value lane l loads into register r.
func rfInput(inBase uint32, l, r int) uint32 {
	f64 := func(v float64, hi bool) uint32 {
		b := math.Float64bits(v)
		if hi {
			return uint32(b >> 32)
		}
		return uint32(b)
	}
	switch r {
	case 0:
		return math.Float32bits(1.25 + 0.5*float32(l))
	case 1:
		return math.Float32bits(-0.75 + 0.375*float32(l))
	case 2, 3:
		return f64(3.5-0.125*float64(l), r == 3)
	case 4, 5:
		return f64(0.5+1.0625*float64(l), r == 5)
	case 6:
		return uint32(isa.F32ToF16(1.5 + 0.25*float32(l)))
	case 7:
		return uint32(isa.F32ToF16(-2 + 0.5*float32(l)))
	case 8:
		return uint32(int32(7*l - 50))
	case 9:
		return uint32(int32(3 - 2*l))
	case 10:
		return uint32(8 * l) // shared address
	case 11:
		return inBase + uint32(l*rfInWords*4) // global address
	}
	// R13..R15: arbitrary bits.
	return uint32(l+1)*0x9e3779b9 ^ uint32(r)*0x85ebca6b
}

func rfInstr(in isa.Instr) isa.Instr {
	in.Pred = isa.PT
	if !rfIsSETP(in.Op) && in.Op != isa.OpSEL {
		in.DstP = isa.PT
	}
	return in
}

// rfProgram assembles setup, the row, and the dump. It returns the
// program and the index of the instruction under test, which is also
// the number of full-warp lane-op groups issued before it.
func rfProgram(inBase, outBase uint32, row rfRow) (*isa.Program, int) {
	var code []isa.Instr
	emit := func(in isa.Instr) { code = append(code, rfInstr(in)) }
	r := isa.R
	imm := isa.Imm
	emit(isa.Instr{Op: isa.OpS2R, Dst: rfAddr, SReg: isa.SrTidX})
	emit(isa.Instr{Op: isa.OpIMAD, Dst: rfAddr, Srcs: [3]isa.Operand{r(rfAddr), imm(rfInWords * 4), imm(inBase)}})
	for reg := 0; reg < rfRegs; reg++ {
		if isa.Reg(reg) != rfAddr {
			emit(isa.Instr{Op: isa.OpLDG, Dst: isa.Reg(reg), Srcs: [3]isa.Operand{r(rfAddr), imm(uint32(4 * reg))}})
		}
	}
	emit(isa.Instr{Op: isa.OpS2R, Dst: rfAddr, SReg: isa.SrTidX})
	emit(isa.Instr{Op: isa.OpIMAD, Dst: rfAddr, Srcs: [3]isa.Operand{r(rfAddr), imm(rfSlots * 4), imm(outBase)}})
	for p := 0; p < rfPreds; p++ {
		emit(isa.Instr{Op: isa.OpISETP, Dst: isa.RZ, DstP: isa.PredReg(p), Cmp: isa.CmpLT,
			Srcs: [3]isa.Operand{r(isa.Reg(13 + p%3)), isa.ImmInt(int32(p-3) << 28)}})
	}
	for _, in := range row.pre {
		emit(in)
	}
	test := len(code)
	emit(row.in)
	for reg := 0; reg < rfRegs; reg++ {
		emit(isa.Instr{Op: isa.OpSTG, Srcs: [3]isa.Operand{r(rfAddr), imm(uint32(4 * reg)), r(isa.Reg(reg))}})
	}
	for p := 0; p < rfPreds; p++ {
		emit(isa.Instr{Op: isa.OpSEL, Dst: 13, DstP: isa.PredReg(p), Srcs: [3]isa.Operand{imm(1), imm(0)}})
		emit(isa.Instr{Op: isa.OpSTG, Srcs: [3]isa.Operand{r(rfAddr), imm(uint32(4 * (rfRegs + p))), r(13)}})
	}
	emit(isa.Instr{Op: isa.OpEXIT, Dst: isa.RZ})
	return &isa.Program{Name: "resultfault_" + row.name, Instrs: code, NumRegs: rfRegs, SharedMem: rfThreads * 8}, test
}

// rfRun runs the row under fault (nil: golden) on lane `lane` of the
// instruction under test and returns the result with the dump.
func rfRun(t *testing.T, row rfRow, fault *FaultPlan, lane int) (*Result, []uint32) {
	t.Helper()
	g := mem.NewGlobal(1 << 16)
	inBase, _ := g.Alloc(rfThreads * rfInWords * 4)
	outBase, _ := g.Alloc(rfThreads * rfSlots * 4)
	for l := 0; l < rfThreads; l++ {
		for reg := 0; reg < rfInWords; reg++ {
			g.SetWord(inBase+uint32((l*rfInWords+reg)*4), rfInput(inBase, l, reg))
		}
	}
	prog, test := rfProgram(inBase, outBase, row)
	if fault != nil {
		fault.TriggerIndex = uint64(test*rfThreads + lane)
	}
	res, err := Run(Config{Device: device.V100(), Program: prog, GridX: 1, GridY: 1, BlockThreads: rfThreads, Fault: fault}, g)
	if err != nil {
		t.Fatalf("%s: %v", row.name, err)
	}
	if fault != nil && !res.Fire.Fired {
		t.Fatalf("%s: %s fault did not fire", row.name, fault.Kind)
	}
	return res, g.ReadWords(outBase, rfThreads*rfSlots)
}

// rfDiff lists the dumped words where got differs from want.
func rfDiff(got, want []uint32) []string {
	var out []string
	for i := range want {
		if got[i] != want[i] {
			lane, slot := i/rfSlots, i%rfSlots
			name := fmt.Sprintf("R%d", slot)
			if slot >= rfRegs {
				name = fmt.Sprintf("P%d", slot-rfRegs)
			}
			out = append(out, fmt.Sprintf("lane %d %s = %#x, want %#x", lane, name, got[i], want[i]))
		}
	}
	return out
}

func rfRows() []rfRow {
	r := isa.R
	imm := isa.Imm
	srcs := func(o ...isa.Operand) (s [3]isa.Operand) {
		copy(s[:], o)
		return s
	}
	alu := func(name string, width int, op isa.Op, dst isa.Reg, o ...isa.Operand) rfRow {
		return rfRow{name: name, width: width, in: isa.Instr{Op: op, Dst: dst, Srcs: srcs(o...)}}
	}
	with := func(row rfRow, f func(in *isa.Instr)) rfRow {
		f(&row.in)
		return row
	}
	cvt := func(name string, width int, op isa.Op, dst isa.Reg, src isa.Reg, from, to isa.DType) rfRow {
		return with(alu(name, width, op, dst, r(src)), func(in *isa.Instr) { in.CvtFrom, in.CvtTo = from, to })
	}
	setp := func(name string, op isa.Op, p isa.PredReg, cmp isa.CmpOp, a, b isa.Reg) rfRow {
		return rfRow{name: name, in: isa.Instr{Op: op, Dst: isa.RZ, DstP: p, Cmp: cmp, Srcs: srcs(r(a), r(b))}}
	}
	ld := func(name string, width int, op isa.Op, dst, addr isa.Reg, off uint32) rfRow {
		return rfRow{name: name, width: width, in: isa.Instr{Op: op, Dst: dst, Wide: width == 64, Srcs: srcs(r(addr), imm(off))}}
	}
	shared := []isa.Instr{
		{Op: isa.OpSTS, Srcs: srcs(r(10), imm(0), r(13))},
		{Op: isa.OpSTS, Srcs: srcs(r(10), imm(4), r(15))},
	}
	lds := func(name string, width int, dst isa.Reg, off uint32) rfRow {
		row := ld(name, width, isa.OpLDS, dst, 10, off)
		row.pre = shared
		return row
	}
	negs := func(row rfRow, neg ...bool) rfRow {
		return with(row, func(in *isa.Instr) { copy(in.Neg[:], neg) })
	}
	const d32, d64 = isa.Reg(14), isa.Reg(2)
	return []rfRow{
		alu("NOP", 0, isa.OpNOP, isa.RZ),
		alu("MOV", 32, isa.OpMOV, d32, r(8)),
		alu("MOV32I", 32, isa.OpMOV32I, d32, imm(0x12345678)),
		with(alu("SEL", 32, isa.OpSEL, d32, r(8), r(9)), func(in *isa.Instr) { in.DstP = 2 }),
		with(alu("S2R", 32, isa.OpS2R, d32), func(in *isa.Instr) { in.SReg = isa.SrLaneID }),
		negs(alu("FADD", 32, isa.OpFADD, d32, r(0), r(1)), false, true),
		alu("FMUL", 32, isa.OpFMUL, d32, r(0), r(1)),
		negs(alu("FFMA", 32, isa.OpFFMA, d32, r(0), r(1), r(0)), false, false, true),
		negs(alu("DADD", 64, isa.OpDADD, d64, r(2), r(4)), false, true),
		alu("DMUL", 64, isa.OpDMUL, d64, r(2), r(4)),
		alu("DFMA", 64, isa.OpDFMA, d64, r(2), r(4), r(2)),
		negs(alu("HADD", 32, isa.OpHADD, d32, r(6), r(7)), false, true),
		alu("HMUL", 32, isa.OpHMUL, d32, r(6), r(7)),
		alu("HFMA", 32, isa.OpHFMA, d32, r(6), r(7), r(6)),
		negs(alu("IADD", 32, isa.OpIADD, d32, r(8), r(9)), false, true),
		alu("IMUL", 32, isa.OpIMUL, d32, r(8), r(9)),
		alu("IMAD", 32, isa.OpIMAD, d32, r(8), r(9), r(13)),
		with(alu("IMNMX", 32, isa.OpIMNMX, d32, r(8), r(9)), func(in *isa.Instr) { in.Cmp = isa.CmpLT }),
		with(alu("LOP.AND", 32, isa.OpLOP, d32, r(13), r(15)), func(in *isa.Instr) { in.Logic = isa.LopAND }),
		with(alu("LOP.OR", 32, isa.OpLOP, d32, r(13), r(15)), func(in *isa.Instr) { in.Logic = isa.LopOR }),
		with(alu("LOP.XOR", 32, isa.OpLOP, d32, r(13), r(15)), func(in *isa.Instr) { in.Logic = isa.LopXOR }),
		with(alu("SHF.L", 32, isa.OpSHF, d32, r(13), r(9)), func(in *isa.Instr) { in.Shift = isa.ShiftL }),
		with(alu("SHF.R", 32, isa.OpSHF, d32, r(13), r(9)), func(in *isa.Instr) { in.Shift = isa.ShiftR }),
		setp("ISETP", isa.OpISETP, 3, isa.CmpLT, 8, 9),
		setp("FSETP", isa.OpFSETP, 3, isa.CmpGT, 0, 1),
		setp("DSETP", isa.OpDSETP, 3, isa.CmpLT, 2, 4),
		setp("HSETP", isa.OpHSETP, 3, isa.CmpGE, 6, 7),
		setp("ISETP.PT", isa.OpISETP, isa.PT, isa.CmpLT, 8, 9),
		setp("FSETP.PT", isa.OpFSETP, isa.PT, isa.CmpGT, 0, 1),
		cvt("F2F.F32.F64", 64, isa.OpF2F, d64, 0, isa.F32, isa.F64),
		cvt("F2F.F64.F32", 32, isa.OpF2F, d32, 2, isa.F64, isa.F32),
		cvt("F2F.F32.F16", 32, isa.OpF2F, d32, 0, isa.F32, isa.F16),
		cvt("F2F.F16.F32", 32, isa.OpF2F, d32, 6, isa.F16, isa.F32),
		cvt("F2F.F64.F16", 32, isa.OpF2F, d32, 2, isa.F64, isa.F16),
		cvt("F2F.F16.F64", 64, isa.OpF2F, d64, 6, isa.F16, isa.F64),
		{name: "F2F.F32.F32", due: true, in: isa.Instr{Op: isa.OpF2F, Dst: d32, CvtFrom: isa.F32, CvtTo: isa.F32, Srcs: srcs(r(0))}},
		cvt("F2I", 32, isa.OpF2I, d32, 0, isa.F32, isa.I32),
		cvt("I2F", 32, isa.OpI2F, d32, 8, isa.I32, isa.F32),
		{name: "I2F.F64", due: true, in: isa.Instr{Op: isa.OpI2F, Dst: d64, CvtFrom: isa.I32, CvtTo: isa.F64, Srcs: srcs(r(8))}},
		with(alu("MUFU.RCP", 32, isa.OpMUFU, d32, r(0)), func(in *isa.Instr) { in.Mufu = isa.MufuRCP }),
		ld("LDG", 32, isa.OpLDG, d32, 11, 0),
		ld("LDG.E.64", 64, isa.OpLDG, d64, 11, 16),
		lds("LDS", 32, d32, 4),
		lds("LDS.E.64", 64, d64, 0),
		// Results discarded into RZ.
		negs(alu("IADD.RZ", 32, isa.OpIADD, isa.RZ, r(8), r(9)), false, true),
		alu("FMUL.RZ", 32, isa.OpFMUL, isa.RZ, r(0), r(1)),
		ld("LDG.RZ", 32, isa.OpLDG, isa.RZ, 11, 0),
		lds("LDS.RZ", 32, isa.RZ, 4),
	}
}

// rfWideRZRows are 64-bit results discarded into RZ.
func rfWideRZRows() []rfRow {
	var rows []rfRow
	for _, row := range rfRows() {
		switch row.name {
		case "DADD", "F2F.F32.F64", "LDG.E.64", "LDS.E.64":
			row.name += ".RZ"
			row.in.Dst = isa.RZ
			rows = append(rows, row)
		}
	}
	return rows
}

// TestResultFaultSemantics pins the architectural effect of each
// result-fault kind on one lane, for one opcode per handler family:
//
//   - value bit: the faulted lane's destination word gets bit Bit&31
//     (32-bit results) or bit Bit&63 of the pair (64-bit results)
//     flipped, Result.Fire records it, and an RZ destination
//     records it without writing;
//   - register index: on a 32-bit result the faulted lane's value lands
//     in (Dst ^ 1<<(Bit%5)) % NumRegs and Dst keeps its old value; a
//     64-bit result is unaffected;
//   - predicate: a SETP's destination predicate flips on the faulted
//     lane unless it is PT; any other instruction is unaffected;
//   - an instruction that raises a DUE applies nothing.
func TestResultFaultSemantics(t *testing.T) {
	lanes := []int{0, 21}
	for _, row := range rfRows() {
		_, gold := rfRun(t, row, nil, 0)
		dst, setp := row.in.Dst, rfIsSETP(row.in.Op)
		for _, kb := range []struct {
			kind FaultKind
			bits []int
		}{
			{FaultValueBit, []int{5, 58}}, // a low-word and a high-word bit
			{FaultRegIndex, []int{0, 8}},  // R14 -> R15, R6; RZ -> R14, R7
			{FaultPredBit, []int{0}},
		} {
			kind := kb.kind
			for _, lane := range lanes {
				for _, bit := range kb.bits {
					fp := &FaultPlan{Kind: kind, Bit: bit}
					res, got := rfRun(t, row, fp, lane)
					where := fmt.Sprintf("%s %s lane %d bit %d", row.name, kind, lane, bit)
					if row.due {
						if res.Outcome != OutcomeDUE || res.Fire.Width != 0 {
							t.Errorf("%s: outcome %s, fire width %d; want DUE with no flip recorded", where, res.Outcome, res.Fire.Width)
						}
						continue
					}
					if res.Outcome != OutcomeOK {
						t.Fatalf("%s: %s", where, res.DUEReason())
					}
					want := append([]uint32(nil), gold...)
					wantBit, wantWidth := 0, 0
					switch {
					case kind == FaultValueBit && row.width > 0:
						wantBit, wantWidth = bit&(row.width-1), row.width
						if dst != isa.RZ {
							want[lane*rfSlots+int(dst)+wantBit/32] ^= 1 << (wantBit % 32)
						}
					case kind == FaultRegIndex && row.width == 32:
						alt := (int(dst) ^ 1<<(bit%5)) % rfRegs
						if isa.Reg(alt) == rfAddr {
							t.Fatalf("%s: redirect lands on the dump address register", where)
						}
						// The faulted lane ends exactly as if the instruction
						// had named alt: alt holds the result, Dst its old value.
						sib := row
						sib.in.Dst = isa.Reg(alt)
						_, redirected := rfRun(t, sib, nil, 0)
						copy(want[lane*rfSlots:(lane+1)*rfSlots], redirected[lane*rfSlots:])
					case kind == FaultPredBit && setp && row.in.DstP != isa.PT:
						want[lane*rfSlots+rfRegs+int(row.in.DstP)] ^= 1
					}
					if res.Fire.Bit != wantBit || res.Fire.Width != wantWidth {
						t.Errorf("%s: fire bit/width = %d/%d, want %d/%d", where, res.Fire.Bit, res.Fire.Width, wantBit, wantWidth)
					}
					for _, d := range rfDiff(got, want) {
						t.Errorf("%s: %s", where, d)
					}
				}
			}
		}
	}
}

// TestResultFaultIntoRZ covers results the instruction discards into
// RZ: a value-bit fault on a 64-bit result records the flip without
// writing anything, and a register-index fault on a 32-bit result
// lands the value in the redirected register.
func TestResultFaultIntoRZ(t *testing.T) {
	const lane, bit = 9, 40
	for _, row := range rfWideRZRows() {
		_, gold := rfRun(t, row, nil, 0)
		fp := &FaultPlan{Kind: FaultValueBit, Bit: bit}
		var res *Result
		var got []uint32
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: value fault panicked: %v", row.name, p)
				}
			}()
			res, got = rfRun(t, row, fp, lane)
		}()
		if got == nil {
			continue
		}
		if res.Fire.Width != 64 || res.Fire.Bit != bit {
			t.Errorf("%s: fire bit/width = %d/%d, want %d/64", row.name, res.Fire.Bit, res.Fire.Width, bit)
		}
		for _, d := range rfDiff(got, gold) {
			t.Errorf("%s: %s", row.name, d)
		}
	}

	// IADD RZ, R8, R9 with register-index bit 3: the sum lands in
	// (RZ ^ 8) % 16 = R7 of the faulted lane and nowhere else.
	row := rfRow{name: "IADD.RZ", width: 32, in: isa.Instr{Op: isa.OpIADD, Dst: isa.RZ,
		Srcs: [3]isa.Operand{isa.R(8), isa.R(9)}}}
	const alt = (int(isa.RZ) ^ 8) % rfRegs
	_, gold := rfRun(t, row, nil, 0)
	fp := &FaultPlan{Kind: FaultRegIndex, Bit: 3}
	_, got := rfRun(t, row, fp, lane)
	want := append([]uint32(nil), gold...)
	want[lane*rfSlots+alt] = rfInput(0, lane, 8) + rfInput(0, lane, 9)
	for _, d := range rfDiff(got, want) {
		t.Errorf("%s register-index: %s", row.name, d)
	}
}
