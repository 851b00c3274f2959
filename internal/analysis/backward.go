package analysis

import "gpurel/internal/isa"

// The backward solver: one noisy-or fixpoint over the def-use edges,
// run twice per launch with two channel sets.
//
//   - The ACE set (SDC, DUE) gives, per destination bit, the
//     probability that flipping it silently corrupts output or derails
//     the run (ACEVector).
//   - The mode set (hang, illegal-address, sync-error, unattributed)
//     splits each bit's settled DUE probability across the simulator's
//     typed DUE mechanisms (DUEModeVec).
//
// The sets differ only in data: a channel count, a terminal-sink table
// (stored value, address, branch guard) and a per-bit settle rule.
// Everything transitive is written once in route and serves both:
// guard and SEL-condition edges, the compare route with its trip-count
// proof, and the data route applying dataStencil with its known-bits
// proofs. The page-window containment proof is decided once in the
// address route; each sink table says what a contained bit is worth.
//
// Soundness: every channel starts at zero and the per-channel noisy-or
// is a bounded monotone combine, so the sweep converges and the sweep
// cap cannot produce unsound facts; the epsilon cut bounds the sweep
// count on loop-carried chains.

// maxChannels is the width of the widest channel set (the mode set).
const maxChannels = int(ModeCount)

// chanWeights holds one value per channel of a set.
type chanWeights [maxChannels]float64

// sinkTable is a channel set's terminal-sink weights: per channel, the
// probability that a flipped bit reaching the sink ends there.
type sinkTable struct {
	store, sharedStore chanWeights // value stored to global / shared memory
	addrLow, addrHigh  chanWeights // address bits below / from AddrPageBits
	// addrContained weighs a low address bit whose page-window
	// containment is proven: the flip only permutes the access inside
	// the 2^AddrPageBits window the address provably stays in.
	addrContained chanWeights
	// branch weighs the guard of control instruction use.
	branch func(use int) *chanWeights
}

// chanSet is one run of the solver: its channel count, sinks, settle
// rule and per-site channel storage.
type chanSet struct {
	n     int
	sinks *sinkTable
	// settle turns bit b's raw noisy-or channels of site into their
	// settled values, in place.
	settle func(site, b int, v *chanWeights)
	chans  [][maxChannels]*[64]float64
	miss   [maxChannels][64]float64 // per-site scratch: noisy-or miss products
}

// aceSinks charges proven page-window bits the calibrated low-bit
// weights like any other low address bit: the containment proof rules
// out an illegal address, not every DUE a wrong address can cause.
var aceSinks = sinkTable{
	store:         chanWeights{SinkStoreSDC, 0},
	sharedStore:   chanWeights{SinkSharedStoreSDC, 0},
	addrLow:       chanWeights{AddrLowSDC, AddrLowDUE},
	addrHigh:      chanWeights{AddrHighSDC, AddrHighDUE},
	addrContained: chanWeights{AddrLowSDC, AddrLowDUE},
	branch:        func(int) *chanWeights { return &aceBranch },
}

var aceBranch = chanWeights{SinkBranchSDC, SinkBranchDUE}

// aceVectors runs the solver with the ACE channel set.
func (bf *bitflow) aceVectors() []ACEVector {
	vec := make([]ACEVector, len(bf.width))
	cs := &chanSet{n: 2, sinks: &aceSinks, settle: settleACE,
		chans: make([][maxChannels]*[64]float64, len(vec))}
	for i := range vec {
		vec[i].Width = bf.width[i]
		cs.chans[i] = [maxChannels]*[64]float64{&vec[i].SDC, &vec[i].DUE}
	}
	bf.solve(cs)
	return vec
}

// settleACE caps SDC+DUE at 1: they are exclusive outcomes of one flip.
func settleACE(_, _ int, v *chanWeights) {
	if t := v[0] + v[1]; t > 1 {
		v[0] /= t
		v[1] /= t
	}
}

// Mode-set branch-guard rows, one per control shape (see modeBranch).
var (
	modeBranchHang        = chanWeights{ModeHang: SinkBranchDUE}
	modeBranchSync        = chanWeights{ModeSyncError: SinkBranchDUE}
	modeBranchUntyped     = chanWeights{ModeUnattributed: SinkBranchDUE}
	modeBranchBackedgeMem = chanWeights{
		ModeHang:           BackedgeMemHangFrac * SinkBranchDUE,
		ModeIllegalAddress: (1 - BackedgeMemHangFrac) * SinkBranchDUE,
	}
	modeBranchForward = chanWeights{
		ModeHang:         BranchForwardHangFrac * SinkBranchDUE,
		ModeUnattributed: (1 - BranchForwardHangFrac) * SinkBranchDUE,
	}
)

// dueModes runs the solver with the mode channel set, partitioning the
// settled ACE vectors' DUE channel.
func (bf *bitflow) dueModes(vec []ACEVector) []DUEModeVec {
	mv := make([]DUEModeVec, len(vec))
	inDiv, bodyMem := divRegions(bf.p), backedgeBodyMem(bf.p)
	// Stored data reaches output, never a DUE: the store rows stay zero.
	// A low address bit with a proven page window cannot escape to an
	// illegal address, so addrContained stays zero too.
	sinks := &sinkTable{
		addrLow:  chanWeights{ModeIllegalAddress: AddrLowDUE},
		addrHigh: chanWeights{ModeIllegalAddress: AddrHighDUE},
		branch: func(use int) *chanWeights {
			return modeBranch(&bf.p.Instrs[use], use, inDiv, bodyMem)
		},
	}
	cs := &chanSet{n: maxChannels, sinks: sinks,
		chans: make([][maxChannels]*[64]float64, len(mv))}
	for i := range mv {
		mv[i].Width = vec[i].Width
		for m := range cs.chans[i] {
			cs.chans[i][m] = &mv[i].Ch[m]
		}
	}
	// Renormalize each bit's raw channels to the authoritative DUE[b].
	// DUE mass no routed channel claims (every mechanism proof fired, or
	// the site reaches DUE only through edges the router cannot type)
	// is the Unattributed residual, never silently dropped.
	cs.settle = func(i, b int, v *chanWeights) {
		var tot float64
		for m := range v {
			tot += v[m]
		}
		due := vec[i].DUE[b]
		if tot > 0 {
			for m := range v {
				v[m] = due * (v[m] / tot)
			}
			return
		}
		*v = chanWeights{}
		if due > 0 {
			v[ModeUnattributed] = due
		}
	}
	bf.solve(cs)
	return mv
}

// modeBranch routes the branch-guard DUE sink to the mechanism the
// guarded control instruction can actually reach when its predicate
// flips.
func modeBranch(useIn *isa.Instr, use int, inDiv, bodyMem []bool) *chanWeights {
	switch useIn.Op {
	case isa.OpEXIT:
		// A thread that spuriously skips (or takes) its EXIT stalls the
		// grid: the scheduler deadlocks or the watchdog fires.
		return &modeBranchHang
	case isa.OpBAR, isa.OpSYNC, isa.OpSSY:
		// Flipping participation in a barrier, a reconvergence SYNC, or
		// the SSY that arms it corrupts the divergence machinery.
		return &modeBranchSync
	case isa.OpBRA:
		switch {
		case useIn.Target <= use && bodyMem[use]:
			// A backedge guard is the loop's trip-count condition. When
			// the body touches memory, overrun iterations mostly die on an
			// out-of-bounds access before the watchdog can fire; only the
			// memory-free fraction of failures spins to a hang.
			return &modeBranchBackedgeMem
		case useIn.Target <= use:
			// A memory-free loop body has nothing to fault on: the wrong
			// trip decision can only spin the loop past its bound.
			return &modeBranchHang
		case inDiv[use]:
			// A divergent branch inside an SSY region repartitions the
			// warp against the armed reconvergence point.
			return &modeBranchSync
		default:
			// A forward branch outside any divergence region: the wrong
			// path can overrun the program (hang) or fail in ways the
			// router cannot type statically.
			return &modeBranchForward
		}
	}
	return &modeBranchUntyped
}

// solve iterates the backward per-bit transfer of one channel set to a
// fixpoint: per destination bit and channel, a noisy-or combine over
// the definition's def-use edges, then the set's settle rule.
func (bf *bitflow) solve(cs *chanSet) {
	const eps = 1e-9
	k, miss := cs.n, &cs.miss
	var next chanWeights
	for iter := 0; iter < 400; iter++ {
		changed := false
		for i := len(bf.width) - 1; i >= 0; i-- {
			w := bf.width[i]
			if w == 0 {
				continue
			}
			for c := 0; c < k; c++ {
				for b := 0; b < w; b++ {
					miss[c][b] = 1
				}
			}
			for _, e := range bf.du.Out[i] {
				bf.route(cs, i, e, w)
			}
			own := &cs.chans[i]
			for b := 0; b < w; b++ {
				for c := 0; c < k; c++ {
					next[c] = 1 - miss[c][b]
				}
				cs.settle(i, b, &next)
				for c := 0; c < k; c++ {
					if abs(next[c]-own[c][b]) > eps {
						changed = true
					}
					own[c][b] = next[c]
				}
			}
		}
		if !changed {
			break
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// chMean averages a channel of a w-bit window over bits >= from: from 0
// the window mean, from a bit index the multiply spread (an input bit
// of a multiply reaches the output bits at or above it).
func chMean(ch *[64]float64, w, from int) float64 {
	if w == 0 {
		return 0
	}
	if from >= w {
		from = w - 1
	}
	var s float64
	for b := from; b < w; b++ {
		s += ch[b]
	}
	return s / float64(w-from)
}

// charge folds one sink row into bit b's miss products.
func (cs *chanSet) charge(b int, row *chanWeights) {
	for c := 0; c < cs.n; c++ {
		cs.miss[c][b] *= 1 - row[c]
	}
}

// route folds one def-use edge of the w-bit definition i into the miss
// products.
func (bf *bitflow) route(cs *chanSet, i int, e UseEdge, w int) {
	useIn := &bf.p.Instrs[e.Use]
	lo := 32 * int(e.DefReg)
	if w == 1 {
		lo = 0 // predicate definitions occupy the single bit 0
	}
	if lo >= w {
		return // beyond the modeled window (MMA tail fragments)
	}
	hi := min(lo+32, w)

	switch e.Kind {
	case EdgeStoreVal:
		row := &cs.sinks.store
		if useIn.Op == isa.OpSTS {
			row = &cs.sinks.sharedStore
		}
		for b := lo; b < hi; b++ {
			cs.charge(b, row)
		}
		return
	case EdgeAddr:
		// The page-window containment proof: flipping a bit below
		// AddrPageBits only permutes the address inside its aligned
		// 2^AddrPageBits window, so when the address value's proven
		// range fits one window starting at 0, the flipped access stays
		// in bounds. High bits always can escape.
		r := bf.facts[i].R
		contained := w == 32 && e.DefReg == 0 && e.UseReg == 0 &&
			r.Lo >= 0 && r.Hi < int64(1)<<AddrPageBits
		for b := lo; b < hi; b++ {
			switch {
			case b-lo >= AddrPageBits:
				cs.charge(b, &cs.sinks.addrHigh)
			case contained:
				cs.charge(b, &cs.sinks.addrContained)
			default:
				cs.charge(b, &cs.sinks.addrLow)
			}
		}
		return
	case EdgeBranchGuard:
		cs.charge(0, cs.sinks.branch(e.Use))
		return
	}

	uc, uw := &cs.chans[e.Use], bf.width[e.Use]
	switch e.Kind {
	case EdgeGuard:
		for c := 0; c < cs.n; c++ {
			cs.miss[c][0] *= 1 - PassGuard*chMean(uc[c], uw, 0)
		}
	case EdgeSelCond:
		for c := 0; c < cs.n; c++ {
			cs.miss[c][0] *= 1 - PassSelCond*chMean(uc[c], uw, 0)
		}
	case EdgeCmp:
		bf.routeCmp(cs, i, e, useIn, w, lo, hi)
	default:
		bf.routeData(cs, e, useIn, lo, hi)
	}
}

// routeCmp routes a comparison source. The trip-count proof: a flip
// that, under the derived ranges, cannot move the operand across the
// comparison threshold cannot change the predicate, so the bit reaches
// no channel (a fully proven band of a loop counter carries no hang
// exposure). Unproven bits take the predicate's channels times PassCmp.
func (bf *bitflow) routeCmp(cs *chanSet, i int, e UseEdge, useIn *isa.Instr, w, lo, hi int) {
	vb := useIn.SrcValueBits(int(e.Slot))
	// Range reasoning is sound only for a single-register integer value
	// read directly (ISETP reads are never negated).
	provable := useIn.Op == isa.OpISETP && w == 32 && e.DefReg == 0 && e.UseReg == 0
	var own, other ValueRange
	if provable {
		own = bf.facts[i].R
		other = bf.operandFact(e.Use, 1-int(e.Slot)).R
	}
	uc := &cs.chans[e.Use]
	for b := lo; b < hi; b++ {
		rb := b - lo
		if rb >= vb {
			continue // register bits the comparison never reads
		}
		if provable {
			expanded := rExpand(own, int64(1)<<uint(rb))
			var known bool
			if int(e.Slot) == 0 {
				_, known = cmpAlways(useIn.Cmp, expanded, other)
			} else {
				_, known = cmpAlways(useIn.Cmp, other, expanded)
			}
			if known {
				continue // the flip cannot change the predicate
			}
		}
		for c := 0; c < cs.n; c++ {
			cs.miss[c][b] *= 1 - PassCmp*uc[c][0]
		}
	}
}

// routeData routes a value operand: per def bit, the probability the
// flip survives into the consumer's destination (dataStencil), times
// the consumer's own channels at the bits it can land in.
func (bf *bitflow) routeData(cs *chanSet, e UseEdge, useIn *isa.Instr, lo, hi int) {
	k, miss := cs.n, &cs.miss
	uc, uw := &cs.chans[e.Use], bf.width[e.Use]
	var mean chanWeights
	for c := 0; c < k; c++ {
		mean[c] = chMean(uc[c], uw, 0)
	}
	vb := useIn.SrcValueBits(int(e.Slot))
	slot := int(e.Slot)
	inv := bf.edgeInvariantsOf(e, useIn)
	for b := lo; b < hi; b++ {
		rb := b - lo
		if rb >= vb {
			continue // the consumer never reads these register bits
		}
		st := dataStencil(useIn, slot, 32*int(e.UseReg)+rb, uw, inv)
		switch st.kind {
		case stMean:
			for c := 0; c < k; c++ {
				miss[c][b] *= 1 - st.f*mean[c]
			}
		case stMeanFrom:
			for c := 0; c < k; c++ {
				miss[c][b] *= 1 - st.f*chMean(uc[c], uw, st.idx)
			}
		default:
			if st.idx < 0 || st.idx >= uw {
				continue // relocated out of the window: masked
			}
			for c := 0; c < k; c++ {
				miss[c][b] *= 1 - st.f*uc[c][st.idx]
			}
		}
	}
}
