package asm

import (
	"math"

	"gpurel/internal/isa"
)

// This file holds the instruction emitters. Naming follows the SASS
// mnemonics; operands use isa.R / isa.Imm / isa.ImmInt constructors.

// --- moves and special registers ---

// Mov copies a register or immediate into dst.
func (b *Builder) Mov(dst isa.Reg, src isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpMOV, Dst: dst, Srcs: [3]isa.Operand{src}})
}

// MovImm loads a raw 32-bit immediate.
func (b *Builder) MovImm(dst isa.Reg, v uint32) {
	b.emit(isa.Instr{Op: isa.OpMOV32I, Dst: dst, Srcs: [3]isa.Operand{isa.Imm(v)}})
}

// MovImmInt loads a signed integer immediate.
func (b *Builder) MovImmInt(dst isa.Reg, v int32) { b.MovImm(dst, uint32(v)) }

// MovImmF32 loads a float32 immediate.
func (b *Builder) MovImmF32(dst isa.Reg, v float32) { b.MovImm(dst, math.Float32bits(v)) }

// MovImmF16 loads a binary16 immediate into the low half of dst.
func (b *Builder) MovImmF16(dst isa.Reg, v float32) {
	b.MovImm(dst, uint32(isa.F32ToF16(v)))
}

// MovImmF64 loads a float64 immediate into the pair (dst, dst+1).
func (b *Builder) MovImmF64(dst isa.Reg, v float64) {
	bits := math.Float64bits(v)
	b.MovImm(dst, uint32(bits))
	b.MovImm(dst+1, uint32(bits>>32))
}

// S2R reads a special register (thread/block indices and dimensions).
func (b *Builder) S2R(dst isa.Reg, sr isa.SpecialReg) {
	b.emit(isa.Instr{Op: isa.OpS2R, Dst: dst, SReg: sr})
}

// Sel writes a if p else c: dst = p ? a : c.
func (b *Builder) Sel(dst isa.Reg, p isa.PredReg, a, c isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpSEL, Dst: dst, DstP: p, Srcs: [3]isa.Operand{a, c}})
}

// --- FP32 ---

// FAdd emits dst = a + b in FP32.
func (b *Builder) FAdd(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpFADD, Dst: dst, Srcs: [3]isa.Operand{a, s}})
}

// FSub emits dst = a - b in FP32.
func (b *Builder) FSub(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpFADD, Dst: dst, Srcs: [3]isa.Operand{a, s}, Neg: [3]bool{false, true}})
}

// FMul emits dst = a * b in FP32.
func (b *Builder) FMul(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpFMUL, Dst: dst, Srcs: [3]isa.Operand{a, s}})
}

// FFma emits dst = a*b + c fused in FP32.
func (b *Builder) FFma(dst isa.Reg, a, s, c isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpFFMA, Dst: dst, Srcs: [3]isa.Operand{a, s, c}})
}

// FSetp compares FP32 values into predicate p.
func (b *Builder) FSetp(p isa.PredReg, cmp isa.CmpOp, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpFSETP, Dst: isa.RZ, DstP: p, Cmp: cmp, Srcs: [3]isa.Operand{a, s}})
}

// --- FP64 (register pairs) ---

// DAdd emits dst = a + b in FP64 over register pairs.
func (b *Builder) DAdd(dst, a, s isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpDADD, Dst: dst, Srcs: [3]isa.Operand{isa.R(a), isa.R(s)}})
}

// DSub emits dst = a - b in FP64.
func (b *Builder) DSub(dst, a, s isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpDADD, Dst: dst, Srcs: [3]isa.Operand{isa.R(a), isa.R(s)}, Neg: [3]bool{false, true}})
}

// DMul emits dst = a * b in FP64.
func (b *Builder) DMul(dst, a, s isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpDMUL, Dst: dst, Srcs: [3]isa.Operand{isa.R(a), isa.R(s)}})
}

// DFma emits dst = a*b + c fused in FP64.
func (b *Builder) DFma(dst, a, s, c isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpDFMA, Dst: dst, Srcs: [3]isa.Operand{isa.R(a), isa.R(s), isa.R(c)}})
}

// --- FP16 (low half of a register) ---

// HAdd emits dst = a + b in FP16.
func (b *Builder) HAdd(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpHADD, Dst: dst, Srcs: [3]isa.Operand{a, s}})
}

// HSub emits dst = a - b in FP16.
func (b *Builder) HSub(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpHADD, Dst: dst, Srcs: [3]isa.Operand{a, s}, Neg: [3]bool{false, true}})
}

// HMul emits dst = a * b in FP16.
func (b *Builder) HMul(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpHMUL, Dst: dst, Srcs: [3]isa.Operand{a, s}})
}

// HFma emits dst = a*b + c in FP16.
func (b *Builder) HFma(dst isa.Reg, a, s, c isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpHFMA, Dst: dst, Srcs: [3]isa.Operand{a, s, c}})
}

// HSetp compares FP16 values into predicate p.
func (b *Builder) HSetp(p isa.PredReg, cmp isa.CmpOp, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpHSETP, Dst: isa.RZ, DstP: p, Cmp: cmp, Srcs: [3]isa.Operand{a, s}})
}

// --- integer ---

// IAdd emits dst = a + b.
func (b *Builder) IAdd(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpIADD, Dst: dst, Srcs: [3]isa.Operand{a, s}})
}

// ISub emits dst = a - b.
func (b *Builder) ISub(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpIADD, Dst: dst, Srcs: [3]isa.Operand{a, s}, Neg: [3]bool{false, true}})
}

// IMul emits dst = a * b (low 32 bits).
func (b *Builder) IMul(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpIMUL, Dst: dst, Srcs: [3]isa.Operand{a, s}})
}

// IMad emits dst = a*b + c.
func (b *Builder) IMad(dst isa.Reg, a, s, c isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpIMAD, Dst: dst, Srcs: [3]isa.Operand{a, s, c}})
}

// IMin emits dst = min(a, b) (signed).
func (b *Builder) IMin(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpIMNMX, Dst: dst, Cmp: isa.CmpLT, Srcs: [3]isa.Operand{a, s}})
}

// IMax emits dst = max(a, b) (signed).
func (b *Builder) IMax(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpIMNMX, Dst: dst, Cmp: isa.CmpGT, Srcs: [3]isa.Operand{a, s}})
}

// ISetp compares integers into predicate p.
func (b *Builder) ISetp(p isa.PredReg, cmp isa.CmpOp, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpISETP, Dst: isa.RZ, DstP: p, Cmp: cmp, Srcs: [3]isa.Operand{a, s}})
}

// And emits dst = a & b.
func (b *Builder) And(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpLOP, Logic: isa.LopAND, Dst: dst, Srcs: [3]isa.Operand{a, s}})
}

// Or emits dst = a | b.
func (b *Builder) Or(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpLOP, Logic: isa.LopOR, Dst: dst, Srcs: [3]isa.Operand{a, s}})
}

// Xor emits dst = a ^ b.
func (b *Builder) Xor(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpLOP, Logic: isa.LopXOR, Dst: dst, Srcs: [3]isa.Operand{a, s}})
}

// Shl emits dst = a << b.
func (b *Builder) Shl(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpSHF, Shift: isa.ShiftL, Dst: dst, Srcs: [3]isa.Operand{a, s}})
}

// Shr emits dst = a >> b (logical).
func (b *Builder) Shr(dst isa.Reg, a, s isa.Operand) {
	b.emit(isa.Instr{Op: isa.OpSHF, Shift: isa.ShiftR, Dst: dst, Srcs: [3]isa.Operand{a, s}})
}

// --- conversions and transcendentals ---

// F2F converts between floating-point widths.
func (b *Builder) F2F(dst isa.Reg, src isa.Reg, from, to isa.DType) {
	b.emit(isa.Instr{Op: isa.OpF2F, Dst: dst, CvtFrom: from, CvtTo: to, Srcs: [3]isa.Operand{isa.R(src)}})
}

// F2I converts FP32 to I32 (truncating).
func (b *Builder) F2I(dst isa.Reg, src isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpF2I, Dst: dst, CvtFrom: isa.F32, CvtTo: isa.I32, Srcs: [3]isa.Operand{isa.R(src)}})
}

// I2F converts I32 to FP32.
func (b *Builder) I2F(dst isa.Reg, src isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpI2F, Dst: dst, CvtFrom: isa.I32, CvtTo: isa.F32, Srcs: [3]isa.Operand{isa.R(src)}})
}

// Mufu emits a transcendental (SFU) operation.
func (b *Builder) Mufu(f isa.MufuFunc, dst isa.Reg, src isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpMUFU, Mufu: f, Dst: dst, Srcs: [3]isa.Operand{isa.R(src)}})
}

// --- tensor core ---

// HMMA emits a warp-wide 16x16x16 MMA with FP16 A/B fragments (4 regs
// each per thread) and FP32 accumulator (8 regs per thread): d = a*b + c.
func (b *Builder) HMMA(d, a, s, c isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpHMMA, Dst: d, Srcs: [3]isa.Operand{isa.R(a), isa.R(s), isa.R(c)}})
}

// FMMA emits a warp-wide 16x16x16 MMA with FP32 A/B fragments (8 regs
// each per thread) cast to FP16 on the tensor core, FP32 accumulate.
func (b *Builder) FMMA(d, a, s, c isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpFMMA, Dst: d, Srcs: [3]isa.Operand{isa.R(a), isa.R(s), isa.R(c)}})
}

// --- memory ---

// Ldg loads a 32-bit word from global memory at [addr + off].
func (b *Builder) Ldg(dst isa.Reg, addr isa.Reg, off uint32) {
	b.emit(isa.Instr{Op: isa.OpLDG, Dst: dst, Srcs: [3]isa.Operand{isa.R(addr), isa.Imm(off)}})
}

// LdgWide loads a 64-bit value into the pair (dst, dst+1).
func (b *Builder) LdgWide(dst isa.Reg, addr isa.Reg, off uint32) {
	b.emit(isa.Instr{Op: isa.OpLDG, Wide: true, Dst: dst, Srcs: [3]isa.Operand{isa.R(addr), isa.Imm(off)}})
}

// Stg stores a 32-bit word to global memory at [addr + off].
func (b *Builder) Stg(addr isa.Reg, off uint32, val isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpSTG, Srcs: [3]isa.Operand{isa.R(addr), isa.Imm(off), isa.R(val)}})
}

// StgWide stores the pair (val, val+1) as a 64-bit value.
func (b *Builder) StgWide(addr isa.Reg, off uint32, val isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpSTG, Wide: true, Srcs: [3]isa.Operand{isa.R(addr), isa.Imm(off), isa.R(val)}})
}

// Lds loads a 32-bit word from shared memory.
func (b *Builder) Lds(dst isa.Reg, addr isa.Reg, off uint32) {
	b.emit(isa.Instr{Op: isa.OpLDS, Dst: dst, Srcs: [3]isa.Operand{isa.R(addr), isa.Imm(off)}})
}

// LdsWide loads a 64-bit value from shared memory into a pair.
func (b *Builder) LdsWide(dst isa.Reg, addr isa.Reg, off uint32) {
	b.emit(isa.Instr{Op: isa.OpLDS, Wide: true, Dst: dst, Srcs: [3]isa.Operand{isa.R(addr), isa.Imm(off)}})
}

// Sts stores a 32-bit word to shared memory.
func (b *Builder) Sts(addr isa.Reg, off uint32, val isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpSTS, Srcs: [3]isa.Operand{isa.R(addr), isa.Imm(off), isa.R(val)}})
}

// StsWide stores a 64-bit pair to shared memory.
func (b *Builder) StsWide(addr isa.Reg, off uint32, val isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpSTS, Wide: true, Srcs: [3]isa.Operand{isa.R(addr), isa.Imm(off), isa.R(val)}})
}

// RedAdd emits an atomic integer add to global memory.
func (b *Builder) RedAdd(addr isa.Reg, off uint32, val isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpRED, Srcs: [3]isa.Operand{isa.R(addr), isa.Imm(off), isa.R(val)}})
}

// --- control ---

// Bar emits a block-wide barrier.
func (b *Builder) Bar() { b.emit(isa.Instr{Op: isa.OpBAR}) }

// Exit emits the kernel terminator.
func (b *Builder) Exit() { b.emit(isa.Instr{Op: isa.OpEXIT}) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(isa.Instr{Op: isa.OpNOP}) }

// Bra emits an unconditional branch to the label.
func (b *Builder) Bra(label string) {
	if b.err != nil {
		return
	}
	b.targets[len(b.instrs)] = label
	b.emitPred(isa.Instr{Op: isa.OpBRA, Pred: isa.PT})
}

// BraIf emits a branch taken in threads where p (or !p when neg) holds.
// A warp-divergent backward branch reconverges at its fall-through.
func (b *Builder) BraIf(p isa.PredReg, neg bool, label string) {
	if b.err != nil {
		return
	}
	b.targets[len(b.instrs)] = label
	b.emitPred(isa.Instr{Op: isa.OpBRA, Pred: p, PredNeg: neg})
}

// SSY declares the reconvergence point for the next divergent branch.
func (b *Builder) SSY(label string) {
	if b.err != nil {
		return
	}
	b.targets[len(b.instrs)] = label
	b.emitPred(isa.Instr{Op: isa.OpSSY, Pred: isa.PT})
}

// Sync emits a jump-to-reconvergence for the active threads.
func (b *Builder) Sync() { b.emit(isa.Instr{Op: isa.OpSYNC}) }
