package isa

// Control-flow helpers shared by the static analyzer (internal/analysis),
// the assembler's whole-program verifier (internal/asm), and the
// disassembler. They encode the same SSY/BRA/SYNC/EXIT semantics the
// SIMT engine executes, so the static CFG matches what actually runs.

// Unconditional reports whether the instruction's guard is the constant
// true predicate (it executes in every active lane).
func (in *Instr) Unconditional() bool {
	return in.Pred == PT && !in.PredNeg
}

// EndsBlock reports whether the instruction terminates a basic block:
// control continues somewhere other than (or in addition to) the next
// instruction. SSY and BAR fall through unconditionally and do not end a
// block; a predicated BRA/EXIT ends one because the warp may split.
func (in *Instr) EndsBlock() bool {
	switch in.Op {
	case OpBRA, OpSYNC, OpEXIT:
		return true
	}
	return false
}

// HasTarget reports whether Target carries a resolved instruction index
// (BRA jumps there; SSY declares it as the reconvergence point).
func (in *Instr) HasTarget() bool {
	return in.Op == OpBRA || in.Op == OpSSY
}

// WritesPredReg returns the predicate register the instruction defines
// and true, or PT and false when it defines none. Only the SETP family
// writes predicates.
func (in *Instr) WritesPredReg() (PredReg, bool) {
	switch in.Op {
	case OpISETP, OpFSETP, OpHSETP, OpDSETP:
		if in.DstP != PT {
			return in.DstP, true
		}
	}
	return PT, false
}

// ReadsPredRegs appends the predicate registers the instruction reads to
// dst and returns it: the guard predicate when conditional, plus SEL's
// select condition (SEL repurposes DstP as a source).
func (in *Instr) ReadsPredRegs(dst []PredReg) []PredReg {
	if in.Pred != PT {
		dst = append(dst, in.Pred)
	}
	if in.Op == OpSEL && in.DstP != PT {
		dst = append(dst, in.DstP)
	}
	return dst
}
