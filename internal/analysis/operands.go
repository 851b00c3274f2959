package analysis

import "gpurel/internal/isa"

// UseKind classifies the role a source register span plays in its
// consumer, which determines the ACE transfer applied along the def-use
// edge (see bitflow.go).
type UseKind uint8

// Source roles.
const (
	UseData     UseKind = iota // value operand of arithmetic, moves, MMA
	UseAddr                    // address operand of a memory operation
	UseStoreVal                // value stored to memory (STG/STS/RED)
	UseCmp                     // SETP comparison source
)

// SrcSpan is one source register span with its role. It mirrors
// isa.Instr.SrcRegSpans — same spans, same order — so liveness and the
// simulator agree on what an instruction reads. Slot records which
// Instr.Srcs operand the span came from, which the bit-level analysis
// needs to pair a register with the other operands of its consumer.
type SrcSpan struct {
	Base isa.Reg
	N    int
	Kind UseKind
	Slot int8
}

// srcSpans lists the instruction's source register spans with roles.
func srcSpans(in *isa.Instr) []SrcSpan {
	var spans []SrcSpan
	add := func(r isa.Reg, n int, k UseKind, slot int) {
		if r != isa.RZ {
			spans = append(spans, SrcSpan{Base: r, N: n, Kind: k, Slot: int8(slot)})
		}
	}
	switch in.Op {
	case isa.OpHMMA:
		add(in.Srcs[0].Reg, 4, UseData, 0)
		add(in.Srcs[1].Reg, 4, UseData, 1)
		add(in.Srcs[2].Reg, 8, UseData, 2)
	case isa.OpFMMA:
		add(in.Srcs[0].Reg, 8, UseData, 0)
		add(in.Srcs[1].Reg, 8, UseData, 1)
		add(in.Srcs[2].Reg, 8, UseData, 2)
	case isa.OpDADD, isa.OpDMUL, isa.OpDFMA, isa.OpDSETP:
		kind := UseData
		if in.Op == isa.OpDSETP {
			kind = UseCmp
		}
		for i, s := range in.Srcs {
			if !s.IsImm && (i < 2 || in.Op == isa.OpDFMA) {
				add(s.Reg, 2, kind, i)
			}
		}
	case isa.OpSTG, isa.OpSTS:
		add(in.Srcs[0].Reg, 1, UseAddr, 0)
		n := 1
		if in.Wide {
			n = 2
		}
		add(in.Srcs[2].Reg, n, UseStoreVal, 2)
	case isa.OpLDG, isa.OpLDS, isa.OpRED:
		add(in.Srcs[0].Reg, 1, UseAddr, 0)
		if in.Op == isa.OpRED {
			add(in.Srcs[2].Reg, 1, UseStoreVal, 2)
		}
	case isa.OpF2F:
		n := 1
		if in.CvtFrom == isa.F64 {
			n = 2
		}
		if !in.Srcs[0].IsImm {
			add(in.Srcs[0].Reg, n, UseData, 0)
		}
	default:
		kind := UseData
		switch in.Op {
		case isa.OpISETP, isa.OpFSETP, isa.OpHSETP:
			kind = UseCmp
		}
		for i := 0; i < isa.NumSrcs(in.Op); i++ {
			if !in.Srcs[i].IsImm {
				add(in.Srcs[i].Reg, 1, kind, i)
			}
		}
	}
	return spans
}

// instrUses collects the GPR and predicate registers the instruction
// reads: its source spans, its guard predicate, and SEL's condition.
func instrUses(in *isa.Instr) (RegSet, PredSet) {
	var g RegSet
	var p PredSet
	for _, s := range srcSpans(in) {
		g.AddSpan(s.Base, s.N)
	}
	for _, pr := range in.ReadsPredRegs(nil) {
		p.Add(pr)
	}
	return g, p
}

// instrDefs collects the GPR and predicate registers the instruction
// writes. Whether a def also kills (for liveness) depends on the guard:
// a predicated write may not execute, so it never kills.
func instrDefs(in *isa.Instr) (RegSet, PredSet) {
	var g RegSet
	var p PredSet
	if n := in.DstRegs(); n > 0 {
		g.AddSpan(in.Dst, n)
	}
	if pr, ok := in.WritesPredReg(); ok {
		p.Add(pr)
	}
	return g, p
}
