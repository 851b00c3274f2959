package analysis

import (
	"gpurel/internal/isa"
)

// Bit-level dataflow: a forward abstract interpretation computing, per
// definition, a known-bits lattice (knownbits.go) and a conservative
// value range (range.go), seeded from immediates, RZ, and the launch
// geometry behind the S2R special registers. The backward solver
// (backward.go) then carries a 64-bit vector per value on those facts.
//
// ACE (Architecturally Correct Execution) estimation: for every
// instruction that defines a value (a GPR span or a predicate), the
// probability that a single bit flipped in that value changes
// architectural output — split into an SDC channel (the corruption
// reaches stored output silently) and a DUE channel (it derails
// addressing or control and crashes/hangs the run). The estimate
// propagates backward along def-use chains: a value is ACE to the
// extent its consumers are, attenuated by a per-consumer masking
// factor. Sinks are the memory system (stored values, addresses) and
// control flow (branch guards); contributions combine as independent
// paths (noisy-or). A value nothing consumes has ACE 0: it is
// architecturally dead, and — transitively — so is everything that only
// feeds dead values, the static counterpart of the dead-code difference
// the paper blames for the SASSIFI-vs-NVBitFI AVF gap (§VI).
//
// The forward facts turn several per-opcode masking guesses into
// proofs: a bit ANDed with a proven zero is masked exactly,
// a bit shifted out by a proven constant amount is masked exactly, a bit
// dropped by a narrowing conversion or an FP16 operand read is masked
// structurally, and a bit whose flip provably cannot move an ISETP
// operand across the comparison threshold (under the derived ranges)
// cannot reach the predicate. Everything unproven falls back to the
// per-opcode pass factors in tuning.go, redistributed per bit position
// with the IEEE-layout profile for FP consumers, so the per-bit
// structure matches the bit-position dependence the injectors measure.
//
// The forward pass is sound at every iteration: the lattice starts at
// top (no knowledge) and only monotonically strengthens, so the sweep
// cap cannot produce unsound facts.

// Bounds carries the launch geometry used to seed S2R special-register
// facts. A nil Bounds (or zero fields) seeds only the geometry-free
// facts (TID.Y = 0, NTID.Y = 1, LANEID < 32, non-negativity).
type Bounds struct {
	GridX, GridY, BlockThreads int
}

// ValueFact is the forward abstract value of one definition: proven
// bits of the destination window plus a signed interval for its 32-bit
// integer interpretation.
type ValueFact struct {
	KB KnownBits
	R  ValueRange
}

func topFact(w int) ValueFact { return ValueFact{KB: kbTop(w), R: rFull()} }

func constFact32(v uint32) ValueFact {
	return ValueFact{KB: kbConst(uint64(v), 32), R: rConst(int64(int32(v)))}
}

func meetFact(a, b ValueFact) ValueFact {
	return ValueFact{KB: kbMeet(a.KB, b.KB), R: rUnion(a.R, b.R)}
}

func factEq(a, b ValueFact) bool { return a.KB == b.KB && a.R == b.R }

// refineFact closes the known-bits/range pair under their mutual
// implications: a non-negative interval proves high zeros, and a
// proven-zero sign bit bounds the interval.
func refineFact(f ValueFact) ValueFact {
	if f.KB.Width != 32 {
		return f
	}
	f.KB = kbMeetRefine(f.KB, kbFromRange(f.R, 32))
	f.R = rIntersect(f.R, rFromKB(f.KB))
	if c, ok := f.R.Const(); ok {
		f.KB = kbConst(uint64(uint32(int32(c))), 32)
	}
	return f
}

// kbMeetRefine unions knowledge from two facts proven for the *same*
// value (unlike kbMeet, which intersects facts from different paths).
func kbMeetRefine(a, b KnownBits) KnownBits {
	return KnownBits{Zeros: a.Zeros | b.Zeros, Ones: a.Ones | b.Ones, Width: a.Width}
}

// PredFact is the forward abstract value of a SETP-defined predicate.
type PredFact uint8

// Predicate facts.
const (
	PredUnknown PredFact = iota
	PredTrue
	PredFalse
)

func predMeet(a, b PredFact) PredFact {
	if a == b {
		return a
	}
	return PredUnknown
}

// ACEVector is the bit-resolved ACE estimate for one definition: per
// destination bit, the probability that flipping exactly that bit
// silently corrupts output (SDC) or derails the run (DUE). Width is the
// modeled window: 32 for single registers, 64 for pairs, 64 for MMA
// accumulators (matching the injectors' 64-bit flip window), 1 for
// predicates, 0 for instructions that define nothing.
type ACEVector struct {
	Width int
	SDC   [64]float64
	DUE   [64]float64
}

// Unmasked returns SDC+DUE for one bit.
func (v *ACEVector) Unmasked(b int) float64 { return v.SDC[b] + v.DUE[b] }

// MeanSDC / MeanDUE average the channel over the window.
func (v *ACEVector) MeanSDC() float64 { return chMean(&v.SDC, v.Width, 0) }

// MeanDUE averages the DUE channel over the window.
func (v *ACEVector) MeanDUE() float64 { return chMean(&v.DUE, v.Width, 0) }

// Dead reports whether every bit of the window is provably masked.
func (v *ACEVector) Dead() bool {
	for b := 0; b < v.Width; b++ {
		if v.Unmasked(b) > aceEps {
			return false
		}
	}
	return true
}

// DeadBits counts the provably-masked bits of the window.
func (v *ACEVector) DeadBits() int {
	n := 0
	for b := 0; b < v.Width; b++ {
		if v.Unmasked(b) <= aceEps {
			n++
		}
	}
	return n
}

// LongestDeadSpan returns the start and length of the longest
// contiguous run of provably-masked bits.
func (v *ACEVector) LongestDeadSpan() (start, length int) {
	best, bestAt, run, runAt := 0, 0, 0, 0
	for b := 0; b < v.Width; b++ {
		if v.Unmasked(b) <= aceEps {
			if run == 0 {
				runAt = b
			}
			run++
			if run > best {
				best, bestAt = run, runAt
			}
		} else {
			run = 0
		}
	}
	return bestAt, best
}

const aceEps = 1e-12

// BitBand buckets a bit position relative to its destination width, for
// the static-vs-injection agreement tables: the low/mid/high thirds of
// the non-sign bits, plus the sign (top) bit.
type BitBand uint8

// Bit bands.
const (
	BandLow BitBand = iota
	BandMid
	BandHigh
	BandSign
	// BandCount is the number of bands.
	BandCount = 4
)

// String names the band.
func (b BitBand) String() string {
	switch b {
	case BandLow:
		return "low"
	case BandMid:
		return "mid"
	case BandHigh:
		return "high"
	case BandSign:
		return "sign"
	}
	return "?"
}

// MarshalText encodes the band name (used for JSON map keys).
func (b BitBand) MarshalText() ([]byte, error) { return []byte(b.String()), nil }

// UnmarshalText decodes a band name.
func (b *BitBand) UnmarshalText(text []byte) error {
	switch string(text) {
	case "mid":
		*b = BandMid
	case "high":
		*b = BandHigh
	case "sign":
		*b = BandSign
	default:
		*b = BandLow
	}
	return nil
}

// BandOf maps a bit position within a destination of the given width to
// its band: the top bit is the sign band, and the remaining width-1
// bits split into equal low/mid/high thirds (the high third takes any
// remainder).
func BandOf(bit, width int) BitBand {
	if width <= 1 || bit >= width-1 {
		return BandSign
	}
	third := (width - 1) / 3
	if third == 0 {
		return BandHigh
	}
	switch {
	case bit < third:
		return BandLow
	case bit < 2*third:
		return BandMid
	default:
		return BandHigh
	}
}

// inEdge is a def-use edge seen from the consumer side.
type inEdge struct {
	Def    int32
	Kind   EdgeKind
	Slot   int8
	DefReg int8
	UseReg int8
}

// bitflow bundles the shared state of the forward and backward passes.
type bitflow struct {
	p      *isa.Program
	du     *DefUse
	bounds *Bounds
	width  []int // per instruction, the modeled destination window

	in      [][]inEdge // per consumer, incoming def edges
	uninitG map[uint32]bool
	uninitP map[uint32]bool

	facts []ValueFact
	preds []PredFact
	// predNontriv marks proven SETP outcomes whose proof needed range
	// reasoning on a non-constant operand — the findings worth
	// reporting, as opposed to folding a compare of two constants.
	predNontriv []bool
}

func newBitflow(p *isa.Program, du *DefUse, bounds *Bounds) *bitflow {
	n := len(p.Instrs)
	bf := &bitflow{
		p: p, du: du, bounds: bounds,
		width:       make([]int, n),
		in:          make([][]inEdge, n),
		uninitG:     map[uint32]bool{},
		uninitP:     map[uint32]bool{},
		facts:       make([]ValueFact, n),
		preds:       make([]PredFact, n),
		predNontriv: make([]bool, n),
	}
	for def := range du.Out {
		for _, e := range du.Out[def] {
			bf.in[e.Use] = append(bf.in[e.Use], inEdge{
				Def: int32(def), Kind: e.Kind, Slot: e.Slot,
				DefReg: e.DefReg, UseReg: e.UseReg,
			})
		}
	}
	for _, u := range du.Uninit {
		if u.IsPred {
			bf.uninitP[uint32(u.Instr)<<4|uint32(u.Pred)] = true
		} else {
			bf.uninitG[uint32(u.Instr)<<9|uint32(u.Reg)] = true
		}
	}
	for i := range p.Instrs {
		bf.width[i] = bf.widthOf(i)
		bf.facts[i] = topFact(bf.width[i])
	}
	return bf
}

// widthOf returns the modeled destination window width of instruction i.
func (bf *bitflow) widthOf(i int) int {
	in := &bf.p.Instrs[i]
	if n := in.DstRegs(); n > 0 {
		if n >= 2 {
			return 64 // pairs; MMA is modeled by its first-64-bit window
		}
		return 32
	}
	if _, ok := in.WritesPredReg(); ok {
		return 1
	}
	return 0
}

// regFact evaluates the fact of one 32-bit register read by consumer u
// at operand slot/register-offset j.
func (bf *bitflow) regFact(u, slot, j int, r isa.Reg) ValueFact {
	if r == isa.RZ {
		return constFact32(0)
	}
	if bf.uninitG[uint32(u)<<9|uint32(r)] {
		return topFact(32)
	}
	have := false
	var acc ValueFact
	for _, e := range bf.in[u] {
		if int(e.Slot) != slot || int(e.UseReg) != j || e.Kind == EdgeGuard ||
			e.Kind == EdgeBranchGuard || e.Kind == EdgeSelCond {
			continue
		}
		f := bf.extract32(bf.facts[e.Def], int(e.DefReg))
		if !have {
			acc, have = f, true
		} else {
			acc = meetFact(acc, f)
		}
	}
	if !have {
		return topFact(32)
	}
	return acc
}

// extract32 slices the register-`part` fact out of a definition's
// window fact.
func (bf *bitflow) extract32(f ValueFact, part int) ValueFact {
	if f.KB.Width == 32 && part == 0 {
		return f
	}
	return ValueFact{KB: kbExtract32(f.KB, part), R: rFull()}
}

// operandFact evaluates the 32-bit fact of operand slot of consumer u,
// applying the integer negation modifier when asked.
func (bf *bitflow) operandFact(u, slot int) ValueFact {
	in := &bf.p.Instrs[u]
	op := in.Srcs[slot]
	if op.IsImm {
		return constFact32(op.Imm)
	}
	return refineFact(bf.regFact(u, slot, 0, op.Reg))
}

func (bf *bitflow) operandFactNeg(u, slot int) ValueFact {
	f := bf.operandFact(u, slot)
	if !bf.p.Instrs[u].Neg[slot] {
		return f
	}
	return refineFact(ValueFact{KB: kbNeg(f.KB), R: rNeg(f.R)})
}

// predFactOf evaluates a predicate read of consumer u with the given
// edge kinds (guard vs SEL condition).
func (bf *bitflow) predFactOf(u int, pr isa.PredReg, selCond bool) PredFact {
	if pr == isa.PT {
		return PredTrue
	}
	if bf.uninitP[uint32(u)<<4|uint32(pr)] {
		return PredUnknown
	}
	have := false
	acc := PredUnknown
	for _, e := range bf.in[u] {
		isCond := e.Kind == EdgeSelCond
		if e.Slot != -1 || isCond != selCond {
			continue
		}
		if e.Kind != EdgeSelCond && e.Kind != EdgeGuard && e.Kind != EdgeBranchGuard {
			continue
		}
		f := bf.preds[e.Def]
		if !have {
			acc, have = f, true
		} else {
			acc = predMeet(acc, f)
		}
	}
	if !have {
		return PredUnknown
	}
	return acc
}

// branchAlways evaluates a conditional branch guard: (taken,
// nontrivial, proven), where nontrivial reports that at least one
// contributing SETP proof involved a non-constant operand range.
func (bf *bitflow) branchAlways(i int) (taken, nontrivial, known bool) {
	in := &bf.p.Instrs[i]
	gf := bf.predFactOf(i, in.Pred, false)
	if gf == PredUnknown {
		return false, false, false
	}
	for _, e := range bf.in[i] {
		if e.Slot == -1 && e.Kind == EdgeBranchGuard && bf.predNontriv[e.Def] {
			nontrivial = true
		}
	}
	return (gf == PredTrue) != in.PredNeg, nontrivial, true
}

// allSrcConst reports whether every register value instruction i reads
// is itself proven constant — in which case a constant result is plain
// constant folding, not a masking insight worth a finding.
func (bf *bitflow) allSrcConst(i int) bool {
	in := &bf.p.Instrs[i]
	for _, sp := range srcSpans(in) {
		for j := 0; j < sp.N; j++ {
			f := refineFact(bf.regFact(i, int(sp.Slot), j, sp.Base+isa.Reg(j)))
			if !f.KB.IsConst() {
				return false
			}
		}
	}
	return true
}

// seedS2R builds the launch-geometry fact for a special register.
func (bf *bitflow) seedS2R(sr isa.SpecialReg) ValueFact {
	nonneg := ValueFact{KB: kbTop(32), R: ValueRange{0, int64(^uint32(0) >> 1)}}
	b := bf.bounds
	switch sr {
	case isa.SrTidY:
		return constFact32(0)
	case isa.SrNtidY:
		return constFact32(1)
	case isa.SrLaneID:
		return refineFact(ValueFact{KB: kbTop(32), R: ValueRange{0, 31}})
	case isa.SrTidX:
		if b != nil && b.BlockThreads > 0 {
			return refineFact(ValueFact{KB: kbTop(32), R: ValueRange{0, int64(b.BlockThreads) - 1}})
		}
	case isa.SrNtidX:
		if b != nil && b.BlockThreads > 0 {
			return constFact32(uint32(b.BlockThreads))
		}
	case isa.SrCtaidX:
		if b != nil && b.GridX > 0 {
			return refineFact(ValueFact{KB: kbTop(32), R: ValueRange{0, int64(b.GridX) - 1}})
		}
	case isa.SrCtaidY:
		if b != nil && b.GridY > 0 {
			return refineFact(ValueFact{KB: kbTop(32), R: ValueRange{0, int64(b.GridY) - 1}})
		}
	case isa.SrNctaidX:
		if b != nil && b.GridX > 0 {
			return constFact32(uint32(b.GridX))
		}
	case isa.SrNctaidY:
		if b != nil && b.GridY > 0 {
			return constFact32(uint32(b.GridY))
		}
	case isa.SrWarpID:
		if b != nil && b.BlockThreads > 0 {
			return refineFact(ValueFact{KB: kbTop(32), R: ValueRange{0, int64((b.BlockThreads+31)/32) - 1}})
		}
	}
	return refineFact(nonneg)
}

// transfer computes instruction i's destination fact and (for SETP) its
// predicate fact from the current operand facts.
func (bf *bitflow) transfer(i int) (ValueFact, PredFact) {
	in := &bf.p.Instrs[i]
	w := bf.width[i]
	pf := PredUnknown
	if w == 0 {
		return topFact(0), pf
	}

	out := topFact(w)
	switch in.Op {
	case isa.OpMOV, isa.OpMOV32I:
		out = bf.operandFact(i, 0)
	case isa.OpS2R:
		out = bf.seedS2R(in.SReg)
	case isa.OpSEL:
		cond := bf.predFactOf(i, in.DstP, true)
		switch cond {
		case PredTrue:
			out = bf.operandFact(i, 0)
		case PredFalse:
			out = bf.operandFact(i, 1)
		default:
			out = meetFact(bf.operandFact(i, 0), bf.operandFact(i, 1))
		}
	case isa.OpIADD:
		a, b := bf.operandFactNeg(i, 0), bf.operandFactNeg(i, 1)
		out = ValueFact{KB: kbAdd(a.KB, b.KB), R: rAdd(a.R, b.R)}
	case isa.OpIMUL:
		a, b := bf.operandFactNeg(i, 0), bf.operandFactNeg(i, 1)
		out = ValueFact{KB: kbMul(a.KB, b.KB), R: rMul(a.R, b.R)}
	case isa.OpIMAD:
		a, b := bf.operandFactNeg(i, 0), bf.operandFactNeg(i, 1)
		c := bf.operandFactNeg(i, 2)
		m := ValueFact{KB: kbMul(a.KB, b.KB), R: rMul(a.R, b.R)}
		out = ValueFact{KB: kbAdd(m.KB, c.KB), R: rAdd(m.R, c.R)}
	case isa.OpIMNMX:
		a, b := bf.operandFact(i, 0), bf.operandFact(i, 1)
		out.KB = kbMeet(a.KB, b.KB)
		if in.Cmp == isa.CmpLT {
			out.R = rMin(a.R, b.R)
		} else {
			out.R = rMax(a.R, b.R)
		}
	case isa.OpLOP:
		a, b := bf.operandFact(i, 0), bf.operandFact(i, 1)
		switch in.Logic {
		case isa.LopAND:
			out.KB = kbAnd(a.KB, b.KB)
		case isa.LopOR:
			out.KB = kbOr(a.KB, b.KB)
		case isa.LopXOR:
			out.KB = kbXor(a.KB, b.KB)
		}
		out.R = rFull()
	case isa.OpSHF:
		a, amt := bf.operandFact(i, 0), bf.operandFact(i, 1)
		if amt.KB.IsConst() {
			k := int(amt.KB.Const() & 31)
			if in.Shift == isa.ShiftL {
				out = ValueFact{KB: kbShl(a.KB, k), R: rShl(a.R, k)}
			} else {
				out = ValueFact{KB: kbShr(a.KB, k), R: rShr(a.R, k)}
			}
		} else if in.Shift == isa.ShiftR && a.R.Lo >= 0 {
			// Unknown amount (possibly 0): a logical right shift of a
			// non-negative value can only shrink it.
			out.R = ValueRange{0, a.R.Hi}
		}
	case isa.OpHADD, isa.OpHMUL, isa.OpHFMA:
		// F16 results land in the low half; the high half is forced 0.
		out.KB = KnownBits{Zeros: 0xffff0000, Width: 32}
		out.R = ValueRange{0, 0xffff}
	case isa.OpF2F:
		if in.CvtTo == isa.F16 {
			out.KB = KnownBits{Zeros: 0xffff0000, Width: 32}
			out.R = ValueRange{0, 0xffff}
		}
	case isa.OpISETP:
		a, b := bf.operandFact(i, 0), bf.operandFact(i, 1)
		if always, known := cmpAlways(in.Cmp, a.R, b.R); known {
			if always {
				pf = PredTrue
			} else {
				pf = PredFalse
			}
			_, ac := a.R.Const()
			_, bc := b.R.Const()
			bf.predNontriv[i] = !(ac && bc)
		}
		return topFact(w), pf
	}
	if out.KB.Width == 32 {
		out = refineFact(out)
	}
	return out, pf
}

// forward runs the abstract interpretation to a fixpoint (or the sweep
// cap; every intermediate state is sound).
func (bf *bitflow) forward() {
	n := len(bf.p.Instrs)
	for sweep := 0; sweep < 64; sweep++ {
		changed := false
		for i := 0; i < n; i++ {
			f, pf := bf.transfer(i)
			if !factEq(f, bf.facts[i]) || pf != bf.preds[i] {
				bf.facts[i], bf.preds[i] = f, pf
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// stencilKind says how one data-edge bit reads the consumer's vector.
type stencilKind uint8

const (
	stExact    stencilKind = iota // channel[idx] (out of range: 0)
	stMeanFrom                    // mean of the channel over bits >= idx
	stMean                        // mean of the channel over the window
)

// bitStencil is the per-bit transfer of one data edge: where the
// flipped bit lands in the consumer's vector and with what pass factor.
// It is channel-agnostic: the backward solver's data route (routeData,
// backward.go) applies it to every channel of whichever channel set is
// running, so the ACE and DUE-mode estimates cannot drift apart per
// opcode.
type bitStencil struct {
	kind stencilKind
	f    float64
	idx  int
}

// edgeInvariants holds the per-edge forward facts the stencil needs,
// hoisted out of the bit loop.
type edgeInvariants struct {
	otherKB    KnownBits
	shiftK     int
	shiftKnown bool
}

func (bf *bitflow) edgeInvariantsOf(e UseEdge, useIn *isa.Instr) edgeInvariants {
	var inv edgeInvariants
	switch useIn.Op {
	case isa.OpLOP:
		inv.otherKB = bf.operandFact(e.Use, 1-int(e.Slot)).KB
	case isa.OpSHF:
		if amt := bf.operandFact(e.Use, 1).KB; amt.IsConst() {
			inv.shiftK, inv.shiftKnown = int(amt.Const()&31), true
		}
	}
	return inv
}

// dataStencil computes the transfer stencil for one consumed bit: the
// per-opcode factor tables of tuning.go plus the known-bits/shift-amount
// proofs, exactly as the original inline switch applied them.
func dataStencil(useIn *isa.Instr, slot, ub, uw int, inv edgeInvariants) bitStencil {
	switch useIn.Op {
	case isa.OpMOV, isa.OpMOV32I:
		return bitStencil{stExact, PassMove, ub}
	case isa.OpSEL:
		return bitStencil{stExact, PassSel * intBitFactor(ub), ub}
	case isa.OpIADD:
		return bitStencil{stExact, PassIAdd * intBitFactor(ub), ub}
	case isa.OpIMAD:
		if slot == 2 {
			// The addend is bit-aligned (same-bit shape), but it
			// takes the multiplier's pass factor: one IMAD factor
			// for every operand.
			return bitStencil{stExact, PassIMul * intBitFactor(ub), ub}
		}
		return bitStencil{stMeanFrom, PassIMul * intBitFactor(ub), ub}
	case isa.OpIMUL:
		return bitStencil{stMeanFrom, PassIMul * intBitFactor(ub), ub}
	case isa.OpIMNMX:
		return bitStencil{stExact, PassMinMax * intBitFactor(ub), ub}
	case isa.OpLOP:
		var f float64
		switch {
		case useIn.Logic == isa.LopXOR:
			f = PassXor
		case useIn.Logic == isa.LopAND && inv.otherKB.ZeroAt(ub):
			f = 0 // proven masked
		case useIn.Logic == isa.LopAND && inv.otherKB.OneAt(ub):
			f = 1 // proven pass-through
		case useIn.Logic == isa.LopOR && inv.otherKB.OneAt(ub):
			f = 0 // proven masked
		case useIn.Logic == isa.LopOR && inv.otherKB.ZeroAt(ub):
			f = 1
		default:
			f = PassAndOr
		}
		return bitStencil{stExact, f, ub}
	case isa.OpSHF:
		switch {
		case slot == 1: // flipping the shift amount
			return bitStencil{stMean, PassShift, 0}
		case inv.shiftKnown:
			ob := ub + inv.shiftK
			if useIn.Shift == isa.ShiftR {
				ob = ub - inv.shiftK
			}
			return bitStencil{stExact, 1, ob} // exact relocation; out of range = shifted out
		default:
			return bitStencil{stMean, PassShift, 0}
		}
	case isa.OpFADD, isa.OpFFMA:
		return bitStencil{stExact, fpBitFactor(32, ub), ub}
	case isa.OpFMUL:
		return bitStencil{stExact, FPMulScale * fpBitFactor(32, ub), ub}
	case isa.OpDADD, isa.OpDFMA:
		return bitStencil{stExact, fpBitFactor(64, ub), ub}
	case isa.OpDMUL:
		return bitStencil{stExact, FPMulScale * fpBitFactor(64, ub), ub}
	case isa.OpHADD, isa.OpHFMA:
		return bitStencil{stExact, fpBitFactor(16, ub), ub}
	case isa.OpHMUL:
		return bitStencil{stExact, FPMulScale * fpBitFactor(16, ub), ub}
	case isa.OpHMMA, isa.OpFMMA:
		return bitStencil{stMean, PassMMA, 0}
	case isa.OpMUFU:
		return bitStencil{stMean, PassMufu, 0}
	case isa.OpF2F:
		inB, outB := useIn.CvtFrom.Bits(), useIn.CvtTo.Bits()
		switch {
		case inB > outB: // narrowing: dropped bits mostly round away
			drop := inB - outB
			if ub < drop {
				return bitStencil{stMean, CvtDropFactor, 0}
			}
			return bitStencil{stExact, CvtKeepFactor, ub - drop}
		case inB < outB: // widening: align the sign/exponent region
			return bitStencil{stExact, CvtKeepFactor, ub + outB - inB}
		default:
			return bitStencil{stExact, PassCvt, ub}
		}
	case isa.OpF2I, isa.OpI2F:
		return bitStencil{stMean, PassCvt, 0}
	}
	return bitStencil{stExact, PassDefault, min(ub, max(uw-1, 0))}
}
