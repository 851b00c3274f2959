package isa

import (
	"fmt"
	"strings"
)

// Operand is an instruction source: a register or a 32-bit immediate.
type Operand struct {
	IsImm bool
	Reg   Reg
	Imm   uint32
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Reg: r} }

// Imm makes an immediate operand from raw 32-bit contents.
func Imm(v uint32) Operand { return Operand{IsImm: true, Imm: v} }

// ImmInt makes an immediate operand from a signed integer.
func ImmInt(v int32) Operand { return Operand{IsImm: true, Imm: uint32(v)} }

// String renders the operand in SASS style.
func (o Operand) String() string {
	if o.IsImm {
		return fmt.Sprintf("0x%x", o.Imm)
	}
	return o.Reg.String()
}

// Instr is one SASS-like instruction. Fields beyond Op are interpreted
// per-opcode; the assembler (internal/asm) is the only producer, and it
// validates every combination it emits.
type Instr struct {
	Op Op

	// Guard predicate: the instruction executes in threads where
	// Pred (xor PredNeg) holds. PT means unconditional.
	Pred    PredReg
	PredNeg bool

	// Dst is the destination GPR (RZ when the op writes none).
	// F64 results occupy the pair Dst, Dst+1. MMA results occupy
	// Dst .. Dst+7 (eight FP32 accumulator fragments).
	Dst Reg

	// DstP is the destination predicate for SETP ops (PT when unused).
	DstP PredReg

	// Srcs are up to three sources. For memory ops Srcs[0] is the address
	// register and Srcs[1] an immediate byte offset. For MMA ops
	// Srcs[0]/Srcs[1] are the A/B fragment base registers and Srcs[2] the
	// C accumulator base register.
	Srcs [3]Operand

	// Neg negates the corresponding floating-point source.
	Neg [3]bool

	// Modifiers, interpreted per-opcode.
	Cmp   CmpOp
	Logic LogicOp
	Shift ShiftDir
	Mufu  MufuFunc
	SReg  SpecialReg

	// Wide marks 64-bit memory accesses (register pairs).
	Wide bool

	// Target is the absolute instruction index for BRA and SSY,
	// resolved by the assembler from labels.
	Target int

	// CvtFrom/CvtTo give the conversion pair for F2F/F2I/I2F.
	CvtFrom, CvtTo DType
}

// DstRegs returns how many consecutive GPRs the instruction writes
// starting at Dst (0 when it writes none).
func (in *Instr) DstRegs() int {
	switch {
	case in.Op == OpHMMA || in.Op == OpFMMA:
		return 8
	case in.Op == OpSTG || in.Op == OpSTS || !in.Op.WritesGPR():
		return 0
	case in.Dst == RZ:
		return 0
	case in.Op == OpDADD || in.Op == OpDMUL || in.Op == OpDFMA:
		return 2
	case (in.Op == OpLDG || in.Op == OpLDS) && in.Wide:
		return 2
	case in.Op == OpF2F && in.CvtTo == F64:
		return 2
	default:
		return 1
	}
}

// DstBits returns the architectural width in bits of the GPR span the
// instruction writes (0 when it writes none). F16 results occupy a full
// 32-bit register — the high half is forced to zero, not unwritten — so
// half-precision producers still report 32.
func (in *Instr) DstBits() int { return 32 * in.DstRegs() }

// SrcValueBits returns how many low-order bits of each source register
// the instruction reads as value input for the given operand slot: 16
// for the packed-half family and F16-sourced conversions (the execution
// units read only the low half of the register), 32 otherwise. Spans
// wider than one register (F64 pairs, MMA fragments) read 32 bits of
// every register in the span.
func (in *Instr) SrcValueBits(slot int) int {
	switch in.Op {
	case OpHADD, OpHMUL, OpHFMA, OpHSETP:
		return 16
	case OpF2F:
		if slot == 0 && in.CvtFrom == F16 {
			return 16
		}
	}
	return 32
}

// SrcRegSpans returns the (base, count) register spans the instruction
// reads. It accounts for F64 pairs, wide stores, and MMA fragments.
func (in *Instr) SrcRegSpans() [][2]Reg {
	var spans [][2]Reg
	add := func(r Reg, n int) {
		if r != RZ {
			spans = append(spans, [2]Reg{r, Reg(n)})
		}
	}
	switch in.Op {
	case OpHMMA:
		add(in.Srcs[0].Reg, 4)
		add(in.Srcs[1].Reg, 4)
		add(in.Srcs[2].Reg, 8)
	case OpFMMA:
		add(in.Srcs[0].Reg, 8)
		add(in.Srcs[1].Reg, 8)
		add(in.Srcs[2].Reg, 8)
	case OpDADD, OpDMUL, OpDFMA, OpDSETP:
		for i, s := range in.Srcs {
			if !s.IsImm && (i < 2 || in.Op == OpDFMA) {
				add(s.Reg, 2)
			}
		}
	case OpSTG, OpSTS:
		add(in.Srcs[0].Reg, 1) // address
		n := 1
		if in.Wide {
			n = 2
		}
		add(in.Srcs[2].Reg, n) // value
	case OpLDG, OpLDS, OpRED:
		add(in.Srcs[0].Reg, 1) // address
		if in.Op == OpRED {
			add(in.Srcs[2].Reg, 1) // value
		}
	case OpF2F:
		n := 1
		if in.CvtFrom == F64 {
			n = 2
		}
		if !in.Srcs[0].IsImm {
			add(in.Srcs[0].Reg, n)
		}
	default:
		for i := 0; i < numSrcs(in.Op); i++ {
			if !in.Srcs[i].IsImm {
				add(in.Srcs[i].Reg, 1)
			}
		}
	}
	return spans
}

// String disassembles the instruction in SASS-like syntax.
func (in *Instr) String() string {
	var b strings.Builder
	if in.Pred != PT {
		if in.PredNeg {
			fmt.Fprintf(&b, "@!%s ", in.Pred)
		} else {
			fmt.Fprintf(&b, "@%s ", in.Pred)
		}
	}
	op := in.Op.String()
	switch in.Op {
	case OpLOP:
		op = "LOP." + in.Logic.String()
	case OpSHF:
		if in.Shift == ShiftL {
			op = "SHF.L"
		} else {
			op = "SHF.R"
		}
	case OpMUFU:
		op = "MUFU." + in.Mufu.String()
	case OpISETP, OpFSETP, OpDSETP, OpHSETP:
		op += "." + in.Cmp.String() + ".AND"
	case OpIMNMX:
		op += "." + in.Cmp.String()
	case OpF2F, OpF2I, OpI2F:
		op += fmt.Sprintf(".%s.%s", in.CvtTo, in.CvtFrom)
	case OpLDG, OpSTG, OpLDS, OpSTS:
		if in.Wide {
			op += ".64"
		}
	}
	b.WriteString(op)

	var args []string
	switch in.Op {
	case OpNOP, OpEXIT, OpSYNC, OpBAR:
	case OpBRA, OpSSY:
		args = append(args, fmt.Sprintf("`(%d)", in.Target))
	case OpS2R:
		args = append(args, in.Dst.String(), in.SReg.String())
	case OpMOV32I:
		args = append(args, in.Dst.String(), in.Srcs[0].String())
	case OpISETP, OpFSETP, OpDSETP, OpHSETP:
		args = append(args, in.DstP.String(), in.Srcs[0].String(), in.Srcs[1].String())
	case OpLDG, OpLDS:
		args = append(args, in.Dst.String(),
			fmt.Sprintf("[%s+0x%x]", in.Srcs[0], in.Srcs[1].Imm))
	case OpSTG, OpSTS, OpRED:
		args = append(args,
			fmt.Sprintf("[%s+0x%x]", in.Srcs[0], in.Srcs[1].Imm),
			in.Srcs[2].String())
	case OpHMMA, OpFMMA:
		args = append(args, in.Dst.String(), in.Srcs[0].String(),
			in.Srcs[1].String(), in.Srcs[2].String())
	case OpSEL:
		args = append(args, in.Dst.String(), in.Srcs[0].String(),
			in.Srcs[1].String(), in.DstP.String())
	default:
		args = append(args, in.Dst.String())
		n := numSrcs(in.Op)
		for i := 0; i < n; i++ {
			s := in.Srcs[i].String()
			if in.Neg[i] {
				s = "-" + s
			}
			args = append(args, s)
		}
	}
	if len(args) > 0 {
		b.WriteString(" ")
		b.WriteString(strings.Join(args, ", "))
	}
	b.WriteString(";")
	return b.String()
}

func numSrcs(op Op) int {
	switch op {
	case OpFFMA, OpDFMA, OpHFMA, OpIMAD:
		return 3
	case OpFADD, OpDADD, OpHADD, OpFMUL, OpDMUL, OpHMUL,
		OpIADD, OpIMUL, OpIMNMX, OpLOP, OpSHF, OpSEL,
		OpISETP, OpFSETP, OpDSETP, OpHSETP:
		return 2
	case OpMOV, OpMOV32I, OpMUFU, OpF2F, OpF2I, OpI2F:
		return 1
	default:
		return 0
	}
}

// NumSrcs returns how many value sources the opcode consumes in the
// generic (non-memory, non-MMA) encoding.
func NumSrcs(op Op) int { return numSrcs(op) }

// Program is a fully resolved instruction sequence plus the static
// resource footprint the occupancy calculator needs.
type Program struct {
	Name      string
	Instrs    []Instr
	NumRegs   int // registers per thread actually referenced
	SharedMem int // bytes of shared memory per block
}

// Disassemble renders the whole program, one instruction per line with
// absolute indices, in the style of nvdisasm output.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\t.text.%s:\n", p.Name)
	for i := range p.Instrs {
		fmt.Fprintf(&b, "  /*%04d*/  %s\n", i, p.Instrs[i].String())
	}
	return b.String()
}

// MaxReg recomputes the highest register referenced by the program plus
// one; the assembler stores it in NumRegs.
func (p *Program) MaxReg() int {
	max := 0
	touch := func(r Reg, n int) {
		if r == RZ {
			return
		}
		if v := int(r) + n; v > max {
			max = v
		}
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if n := in.DstRegs(); n > 0 {
			touch(in.Dst, n)
		}
		for _, s := range in.SrcRegSpans() {
			touch(s[0], int(s[1]))
		}
	}
	return max
}
