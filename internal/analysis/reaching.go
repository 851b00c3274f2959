package analysis

import "gpurel/internal/isa"

// Reaching definitions over the CFG, yielding def-use chains: for every
// instruction that defines a register (GPR span or predicate), the set
// of instructions that may consume that value, annotated with the role
// the value plays at the consumer. The ACE propagation walks these edges
// backward; the use-before-def lint reads the entry pseudo-definition.

// EdgeKind classifies one def-use edge for the ACE transfer model.
type EdgeKind uint8

// Def-use edge kinds.
const (
	EdgeData        EdgeKind = iota // value operand of arithmetic/moves/MMA
	EdgeAddr                        // address of a memory operation
	EdgeStoreVal                    // value stored to memory
	EdgeCmp                         // SETP comparison source
	EdgeGuard                       // predicate guarding a non-control instruction
	EdgeBranchGuard                 // predicate guarding BRA/EXIT
	EdgeSelCond                     // predicate selecting a SEL input
)

// UseEdge is one consumer of a definition, resolved to 32-bit register
// granularity: which operand slot of the consumer reads the value, and
// which register of the definition's destination span lands in which
// register of the consumer's source span. The bit-level analysis needs
// the full resolution to map destination bits onto operand bits.
type UseEdge struct {
	Use    int // consuming instruction index
	Kind   EdgeKind
	Slot   int8 // consumer operand index (Instr.Srcs), -1 for predicates
	DefReg int8 // register offset within the definition's dest span
	UseReg int8 // register offset within the consumer's source span
}

// UninitUse records a register read that the entry pseudo-definition may
// reach: on some path the register is read before any instruction
// writes it.
type UninitUse struct {
	Instr  int
	Reg    isa.Reg // meaningful when !IsPred
	IsPred bool
	Pred   isa.PredReg
}

// DefUse is the def-use chain graph.
type DefUse struct {
	// Out[i] lists the uses of instruction i's definitions.
	Out [][]UseEdge
	// Uninit lists possibly-uninitialized reads, in instruction order.
	Uninit []UninitUse
}

// duState is the dataflow value: per register, the definition sites that
// may have produced its current value, plus the entry pseudo-definition
// tracked as an "uninitialized" bit. Slices are copy-on-write: transfer
// functions always allocate fresh slices.
type duState struct {
	g       [256][]int32
	p       [8][]int32
	uninitG RegSet
	uninitP PredSet
}

func (s *duState) clone() duState {
	c := *s
	return c // slice headers are shared; mutations replace headers
}

// unionSets merges sorted unique b into sorted unique a, returning a new
// slice when anything was added.
func unionSets(a, b []int32) ([]int32, bool) {
	if len(b) == 0 {
		return a, false
	}
	if len(a) == 0 {
		return b, true
	}
	merged := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	added := false
	for i < len(a) || j < len(b) {
		switch {
		case i == len(a):
			merged = append(merged, b[j])
			added = true
			j++
		case j == len(b):
			merged = append(merged, a[i])
			i++
		case a[i] < b[j]:
			merged = append(merged, a[i])
			i++
		case a[i] > b[j]:
			merged = append(merged, b[j])
			added = true
			j++
		default:
			merged = append(merged, a[i])
			i++
			j++
		}
	}
	if !added {
		return a, false
	}
	return merged, true
}

// meet folds src into dst, reporting change.
func (s *duState) meet(src *duState) bool {
	changed := false
	for r := range s.g {
		if merged, ch := unionSets(s.g[r], src.g[r]); ch {
			s.g[r] = merged
			changed = true
		}
	}
	for r := range s.p {
		if merged, ch := unionSets(s.p[r], src.p[r]); ch {
			s.p[r] = merged
			changed = true
		}
	}
	if s.uninitG.Union(&src.uninitG) {
		changed = true
	}
	if s.uninitP.Union(src.uninitP) {
		changed = true
	}
	return changed
}

// step applies one instruction's definitions. A predicated definition
// merges with the incumbent defs (the write may not happen); it still
// clears the uninitialized bit, the documented optimistic choice that
// keeps guarded-initialization patterns from being flagged.
func (s *duState) step(i int, in *isa.Instr) {
	uncond := in.Unconditional()
	if n := in.DstRegs(); n > 0 {
		for k := 0; k < n; k++ {
			r := in.Dst + isa.Reg(k)
			if r == isa.RZ {
				continue
			}
			if uncond {
				s.g[r] = []int32{int32(i)}
			} else {
				s.g[r], _ = unionSets(s.g[r], []int32{int32(i)})
			}
			s.uninitG.Remove(r)
		}
	}
	if pr, ok := in.WritesPredReg(); ok {
		if uncond {
			s.p[pr] = []int32{int32(i)}
		} else {
			s.p[pr], _ = unionSets(s.p[pr], []int32{int32(i)})
		}
		s.uninitP.Remove(pr)
	}
}

// buildDefUse runs the reaching-definition fixpoint and collects the
// def-use edges and possibly-uninitialized reads.
func buildDefUse(p *isa.Program, cfg *CFG) *DefUse {
	n := len(p.Instrs)
	du := &DefUse{Out: make([][]UseEdge, n)}
	if n == 0 {
		return du
	}

	in := make([]duState, len(cfg.Blocks))
	// Entry: every register may hold the uninitialized pseudo-value.
	for r := isa.Reg(0); r < isa.Reg(isa.NumGPR); r++ {
		in[0].uninitG.Add(r)
	}
	for pr := isa.PredReg(0); pr < isa.PredReg(isa.NumPred); pr++ {
		in[0].uninitP.Add(pr)
	}

	changed := true
	for changed {
		changed = false
		for _, b := range cfg.Blocks {
			st := in[b.ID].clone()
			for i := b.Start; i < b.End; i++ {
				st.step(i, &p.Instrs[i])
			}
			for _, s := range b.Succs {
				if in[s].meet(&st) {
					changed = true
				}
			}
		}
	}

	// Edge collection over reachable blocks.
	type edgeKey struct {
		def    int32
		use    int
		kind   EdgeKind
		slot   int8
		defReg int8
		useReg int8
	}
	seen := make(map[edgeKey]bool)
	addEdge := func(def int32, use int, kind EdgeKind, slot, defReg, useReg int8) {
		k := edgeKey{def, use, kind, slot, defReg, useReg}
		if seen[k] {
			return
		}
		seen[k] = true
		du.Out[def] = append(du.Out[def], UseEdge{
			Use: use, Kind: kind, Slot: slot, DefReg: defReg, UseReg: useReg,
		})
	}
	uninitSeen := make(map[edgeKey]bool)
	for _, b := range cfg.Blocks {
		if !cfg.Reachable[b.ID] {
			continue
		}
		st := in[b.ID].clone()
		for i := b.Start; i < b.End; i++ {
			inst := &p.Instrs[i]
			for _, span := range srcSpans(inst) {
				kind := EdgeData
				switch span.Kind {
				case UseAddr:
					kind = EdgeAddr
				case UseStoreVal:
					kind = EdgeStoreVal
				case UseCmp:
					kind = EdgeCmp
				}
				for k := 0; k < span.N; k++ {
					r := span.Base + isa.Reg(k)
					if r == isa.RZ {
						continue
					}
					for _, d := range st.g[r] {
						defReg := int8(r - p.Instrs[d].Dst)
						addEdge(d, i, kind, span.Slot, defReg, int8(k))
					}
					if st.uninitG.Has(r) {
						uk := edgeKey{def: int32(r), use: i, kind: 0}
						if !uninitSeen[uk] {
							uninitSeen[uk] = true
							du.Uninit = append(du.Uninit, UninitUse{Instr: i, Reg: r})
						}
					}
				}
			}
			for _, pr := range inst.ReadsPredRegs(nil) {
				kind := EdgeGuard
				if inst.Op == isa.OpSEL && pr == inst.DstP {
					kind = EdgeSelCond
				} else if inst.Op.IsControl() {
					kind = EdgeBranchGuard
				}
				for _, d := range st.p[pr] {
					addEdge(d, i, kind, -1, 0, 0)
				}
				if st.uninitP.Has(pr) {
					uk := edgeKey{def: int32(pr), use: i, kind: 1}
					if !uninitSeen[uk] {
						uninitSeen[uk] = true
						du.Uninit = append(du.Uninit, UninitUse{Instr: i, IsPred: true, Pred: pr})
					}
				}
			}
			st.step(i, inst)
		}
	}
	return du
}
