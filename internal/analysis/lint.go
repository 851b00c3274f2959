package analysis

import (
	"fmt"

	"gpurel/internal/isa"
)

// Severity grades a lint finding.
type Severity uint8

// Severities. Errors are the subset the assembler's verifier rejects at
// build time; warnings are reported by `gpurel lint`.
const (
	SevWarn Severity = iota
	SevError
)

// String names the severity.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warn"
}

// Finding kinds.
const (
	KindDeadStore    = "dead-store"
	KindDeadLoad     = "dead-load"
	KindDeadPred     = "dead-pred"
	KindUnreachable  = "unreachable"
	KindUseBeforeDef = "use-before-def"
	KindFallOffEnd   = "fall-off-end"
	KindSSYNoBranch  = "ssy-no-divergent-branch"
	KindSSYBackward  = "ssy-backward-target"
	KindSSYPastEnd   = "ssy-target-past-end"
	KindSyncNoRegion = "sync-outside-ssy-region"
	KindPairSplitBra = "branch-splits-pair"
	// Bit-level findings (see bitflow.go).
	KindConstResult     = "constant-result"
	KindDeadBitSpan     = "dead-bit-span"
	KindRangeDeadBranch = "range-dead-branch"
	// Optimization-matrix findings (see optFindings below): static
	// reliability-hostile codegen shapes the matrix makes measurable.
	KindLongLiveRange = "long-live-range"
	KindSpillExposure = "spill-exposure"
	KindUnrollACEMass = "unroll-ace-inflation"
	// DUE-mode exposure findings (see dueModeFindings below): sites
	// whose flips provably reach one of the typed DUE mechanisms.
	KindUnboundedLoopExposure = "unbounded-loop-exposure"
	KindUnguardedAddressArith = "unguarded-address-arith"
	KindSyncFragileRegion     = "sync-fragile-region"
)

// Finding is one lint diagnostic, anchored to an instruction index.
type Finding struct {
	Sev   Severity `json:"severity"`
	Kind  string   `json:"kind"`
	Instr int      `json:"instr"`
	Msg   string   `json:"msg"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s[%s] /*%04d*/ %s", f.Sev, f.Kind, f.Instr, f.Msg)
}

// lint assembles the full report for an analyzed program.
func lint(r *Result) []Finding {
	p := r.Prog
	var out []Finding

	out = append(out, ControlHazards(p)...)

	for _, id := range r.CFG.FallsOff {
		b := r.CFG.Blocks[id]
		if !r.CFG.Reachable[id] {
			continue
		}
		out = append(out, Finding{
			Sev: SevError, Kind: KindFallOffEnd, Instr: b.Last(),
			Msg: fmt.Sprintf("control flow reaches past the last instruction (block %d): instruction-fetch DUE", id),
		})
	}

	for _, b := range r.CFG.Blocks {
		if !r.CFG.Reachable[b.ID] {
			out = append(out, Finding{
				Sev: SevError, Kind: KindUnreachable, Instr: b.Start,
				Msg: fmt.Sprintf("block %d (instructions %d..%d) is unreachable", b.ID, b.Start, b.End-1),
			})
		}
	}

	for _, u := range r.DefUse.Uninit {
		var what string
		if u.IsPred {
			what = u.Pred.String()
		} else {
			what = u.Reg.String()
		}
		out = append(out, Finding{
			Sev: SevError, Kind: KindUseBeforeDef, Instr: u.Instr,
			Msg: fmt.Sprintf("%s may be read before any definition: %s", what, p.Instrs[u.Instr].String()),
		})
	}

	// Dead writes: liveness-based, flow-sensitive. Only side-effect-free
	// results qualify; a dead load is split out because removing one
	// also removes a potential address DUE (a real behavioural change).
	for _, b := range r.CFG.Blocks {
		if !r.CFG.Reachable[b.ID] {
			continue // already reported as unreachable
		}
		for i := b.Start; i < b.End; i++ {
			in := &p.Instrs[i]
			if n := in.DstRegs(); n > 0 {
				live := false
				for k := 0; k < n; k++ {
					if r.LiveOut[i].Has(in.Dst + isa.Reg(k)) {
						live = true
						break
					}
				}
				if !live {
					kind := KindDeadStore
					if in.Op == isa.OpLDG || in.Op == isa.OpLDS {
						kind = KindDeadLoad
					}
					out = append(out, Finding{
						Sev: SevWarn, Kind: kind, Instr: i,
						Msg: fmt.Sprintf("result %s is never read: %s", in.Dst, in.String()),
					})
				}
			}
			if pr, ok := in.WritesPredReg(); ok && !r.PredLiveOut[i].Has(pr) {
				out = append(out, Finding{
					Sev: SevWarn, Kind: KindDeadPred, Instr: i,
					Msg: fmt.Sprintf("predicate %s is never read: %s", pr, in.String()),
				})
			}
		}
	}
	out = append(out, bitFindings(r)...)
	out = append(out, optFindings(r)...)
	out = append(out, dueModeFindings(r)...)
	return out
}

// dueModeFindings reports DUE-mode exposures the prover tried and
// failed to discharge. Each finding anchors to a failed proof rather
// than to raw mode mass, so ordinary shapes — a counted loop, a
// constant-window address, a divergent diamond — stay clean:
//
//   - unbounded-loop-exposure: a conditional backedge whose guard
//     compare has no range knowledge on either side. The trip count is
//     statically unbounded, so every flip in the condition chain is
//     hang exposure; a compare against any bounded operand suppresses
//     the finding.
//   - unguarded-address-arith: an address-feeding value whose low-bit
//     band still carries illegal-address mass — the page-window
//     containment proof (the backward solver's address route,
//     backward.go) failed, where a proven window zeroes the band in
//     the mode set's sink table.
//   - sync-fragile-region: a predicate that directly gates BAR/SYNC
//     participation (a divergent barrier is a guaranteed sync DUE in
//     the simulator), or a value whose transitive sync-error exposure
//     exceeds the one-compare trickle bound.
func dueModeFindings(r *Result) []Finding {
	p, modes := r.Prog, r.DUEModes()
	var out []Finding
	flaggedBackedge := make(map[int]bool)
	for _, blk := range r.CFG.Blocks {
		if !r.CFG.Reachable[blk.ID] {
			continue
		}
		for i := blk.Start; i < blk.End; i++ {
			in := &p.Instrs[i]
			if in.Op == isa.OpISETP {
				for _, e := range r.DefUse.Out[i] {
					use := &p.Instrs[e.Use]
					if e.Kind != EdgeBranchGuard || use.Op != isa.OpBRA || use.Target > e.Use || flaggedBackedge[e.Use] {
						continue
					}
					if r.bf.operandFact(i, 0).R != rFull() || r.bf.operandFact(i, 1).R != rFull() {
						continue // some range knowledge bounds the trip count
					}
					flaggedBackedge[e.Use] = true
					out = append(out, Finding{
						Sev: SevWarn, Kind: KindUnboundedLoopExposure, Instr: e.Use,
						Msg: fmt.Sprintf("backedge guard at %d proves no trip-count bound; flips in its condition chain hang (%.0f%% exposure): %s",
							i, 100*modes[i].Mean(ModeHang), in.String()),
					})
				}
			}
			if _, ok := in.WritesPredReg(); ok {
				for _, e := range r.DefUse.Out[i] {
					use := &p.Instrs[e.Use]
					if e.Kind == EdgeBranchGuard && (use.Op == isa.OpBAR || use.Op == isa.OpSYNC) {
						out = append(out, Finding{
							Sev: SevWarn, Kind: KindSyncFragileRegion, Instr: i,
							Msg: fmt.Sprintf("predicate gates %s participation at %d; a flipped guard diverges the barrier (%.0f%% sync-error exposure): %s",
								use.Op, e.Use, 100*modes[i].Mean(ModeSyncError), in.String()),
						})
						break
					}
				}
			}
			v := &modes[i]
			if v.Width < 32 || r.ACEVec[i].Dead() {
				continue
			}
			feedsAddr := false
			for _, e := range r.DefUse.Out[i] {
				if e.Kind == EdgeAddr {
					feedsAddr = true
					break
				}
			}
			if feedsAddr {
				var low float64
				for b := 0; b < AddrPageBits; b++ {
					low += v.Ch[ModeIllegalAddress][b]
				}
				low /= AddrPageBits
				if low >= AddrExposureMin {
					out = append(out, Finding{
						Sev: SevWarn, Kind: KindUnguardedAddressArith, Instr: i,
						Msg: fmt.Sprintf("address low bits lack an in-window containment proof (%.0f%% low-band illegal-address exposure): %s",
							100*low, in.String()),
					})
				}
			}
			if s := v.Mean(ModeSyncError); s >= SyncExposureMin {
				out = append(out, Finding{
					Sev: SevWarn, Kind: KindSyncFragileRegion, Instr: i,
					Msg: fmt.Sprintf("flips here corrupt reconvergence or barrier participation (%.0f%% mean sync-error exposure): %s",
						100*s, in.String()),
				})
			}
		}
	}
	return out
}

// optFindings reports the reliability-hostile codegen shapes the
// optimization matrix varies: values resident in the register file for
// long stretches, spill round trips that park live values in shared
// memory, and unrolled bodies that replicate live (ACE-carrying)
// computation. Each is anchored to a proven static property — a def-use
// span, an STS→LDS window, a tandem repeat with its summed ACE mass —
// not to a heuristic about intent.
func optFindings(r *Result) []Finding {
	p := r.Prog
	var out []Finding

	for i := range p.Instrs {
		if p.Instrs[i].DstRegs() == 0 || !r.reachable(i) {
			continue
		}
		if span := r.liveSpan(i); span >= LongLiveRangeMin {
			out = append(out, Finding{
				Sev: SevWarn, Kind: KindLongLiveRange, Instr: i,
				Msg: fmt.Sprintf("value is register-resident for %d instructions before its last use (threshold %d): %s",
					span, LongLiveRangeMin, p.Instrs[i].String()),
			})
		}
	}

	for _, sp := range spillPairs(r) {
		if gap := sp.load - sp.store; gap >= SpillExposureMin {
			out = append(out, Finding{
				Sev: SevWarn, Kind: KindSpillExposure, Instr: sp.store,
				Msg: fmt.Sprintf("%s spills through shared memory for %d instructions (reload at %d): exposure moves to the memory window",
					sp.reg, gap, sp.load),
			})
		}
	}

	out = append(out, unrollFindings(r)...)
	return out
}

// unrollFindings detects tandem-repeated instruction bodies — the
// static footprint of an unrolled loop — and reports the ones whose
// repeated region carries enough unmasked ACE mass to matter. Each
// extra body copy is that many more live destination bits for a fault
// to land in, the mechanism behind unrolling's cross-section cost.
func unrollFindings(r *Result) []Finding {
	p := r.Prog
	var out []Finding
	for _, blk := range r.CFG.Blocks {
		if !r.CFG.Reachable[blk.ID] {
			continue
		}
		for i := blk.Start; i < blk.End; {
			q, k := tandemRepeat(p, i, blk.End)
			if k < 2 {
				i++
				continue
			}
			var mass float64
			for j := i; j < i+q*k; j++ {
				v := &r.ACEVec[j]
				for b := 0; b < v.Width; b++ {
					mass += v.Unmasked(b)
				}
			}
			if mass >= UnrollACEMassMin {
				out = append(out, Finding{
					Sev: SevWarn, Kind: KindUnrollACEMass, Instr: i,
					Msg: fmt.Sprintf("%d copies of a %d-instruction body (instructions %d..%d) carry %.0f unmasked ACE bits: unrolling replicated live computation",
						k, q, i, i+q*k-1, mass),
				})
			}
			i += q * k
		}
	}
	return out
}

// tandemRepeat finds the smallest period q >= UnrollBodyMin such that
// the opcode sequence starting at i repeats consecutively within
// [i, end), returning the period and repeat count (k < 2: no repeat).
// Opcode equality plus matching immediate-vs-register operand shape
// keeps address arithmetic runs from matching accidentally.
func tandemRepeat(p *isa.Program, i, end int) (q, k int) {
	for q = UnrollBodyMin; i+2*q <= end; q++ {
		k = 1
		for i+(k+1)*q <= end && sameBody(p, i, i+k*q, q) {
			k++
		}
		if k >= 2 {
			return q, k
		}
	}
	return 0, 1
}

// sameBody compares two instruction windows by opcode and operand
// shape.
func sameBody(p *isa.Program, a, b, n int) bool {
	for j := 0; j < n; j++ {
		x, y := &p.Instrs[a+j], &p.Instrs[b+j]
		if x.Op != y.Op {
			return false
		}
		for s := range x.Srcs {
			if x.Srcs[s].IsImm != y.Srcs[s].IsImm {
				return false
			}
		}
	}
	return true
}

// bitFindings reports what the bit-level analysis proved: instructions
// computing provably-constant results, live results with long provably
// dead bit spans, and conditional branches whose guard is provably
// constant under the derived value ranges.
func bitFindings(r *Result) []Finding {
	if r.bf == nil {
		return nil
	}
	p := r.Prog
	var out []Finding
	for _, b := range r.CFG.Blocks {
		if !r.CFG.Reachable[b.ID] {
			continue
		}
		for i := b.Start; i < b.End; i++ {
			in := &p.Instrs[i]
			v := &r.ACEVec[i]

			// Constant results: every destination bit proven, on a
			// value something actually consumes (dead ones are already
			// dead-store findings) and an opcode that computes (moves
			// and S2R reads are constant by construction, not by
			// simplifiable dataflow). Folding a computation whose inputs
			// are all constant is routine address setup, not a masking
			// insight — the finding requires a non-constant input.
			switch in.Op {
			case isa.OpMOV, isa.OpMOV32I, isa.OpS2R:
			default:
				if in.DstRegs() > 0 && r.Facts[i].KB.IsConst() && !v.Dead() && !r.bf.allSrcConst(i) {
					out = append(out, Finding{
						Sev: SevWarn, Kind: KindConstResult, Instr: i,
						Msg: fmt.Sprintf("result is provably constant 0x%x: %s",
							r.Facts[i].KB.Const(), in.String()),
					})
				}
			}

			// Dead bit spans: a live destination with a long contiguous
			// run of provably-masked bits. Half-precision producers are
			// exempt — their architecturally-narrow high half is by
			// design, not a finding.
			if v.Width >= 32 && !v.Dead() && in.Op.TypeOf() != isa.F16 {
				if start, length := v.LongestDeadSpan(); length >= DeadBitSpanMin {
					out = append(out, Finding{
						Sev: SevWarn, Kind: KindDeadBitSpan, Instr: i,
						Msg: fmt.Sprintf("destination bits %d..%d (%d of %d) are provably masked: %s",
							start, start+length-1, length, v.Width, in.String()),
					})
				}
			}

			// Range-dead branch arms: a conditional branch whose guard
			// the forward pass proved constant through an actual range
			// argument (a constant-vs-constant compare is just folding).
			if in.Op == isa.OpBRA && !in.Unconditional() {
				if taken, nontriv, known := r.bf.branchAlways(i); known && nontriv {
					arm := "fall-through"
					if !taken {
						arm = "taken"
					}
					out = append(out, Finding{
						Sev: SevWarn, Kind: KindRangeDeadBranch, Instr: i,
						Msg: fmt.Sprintf("guard is provably %v under derived ranges; the %s arm is unreachable from here: %s",
							taken, arm, in.String()),
					})
				}
			}
		}
	}
	return out
}

// ControlHazards performs the whole-program control-flow checks that do
// not need dataflow: SSY/reconvergence pairing, SYNC region coverage,
// and branch targets that split a multi-register initialization
// sequence. internal/asm's verifier rejects these at build time.
func ControlHazards(p *isa.Program) []Finding {
	var out []Finding
	n := len(p.Instrs)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case isa.OpSSY:
			switch {
			case in.Target <= i:
				out = append(out, Finding{
					Sev: SevError, Kind: KindSSYBackward, Instr: i,
					Msg: fmt.Sprintf("SSY reconvergence target %d does not follow the SSY", in.Target),
				})
			case in.Target >= n:
				out = append(out, Finding{
					Sev: SevError, Kind: KindSSYPastEnd, Instr: i,
					Msg: fmt.Sprintf("SSY reconvergence target %d is past the last instruction", in.Target),
				})
			default:
				// The engine hands pendingReconv to the next BRA; an SSY
				// with no conditional branch before its reconvergence
				// point leaves a stale pending target for an unrelated
				// later branch to consume.
				matched := false
				for j := i + 1; j < in.Target; j++ {
					if p.Instrs[j].Op == isa.OpBRA && !p.Instrs[j].Unconditional() {
						matched = true
						break
					}
				}
				if !matched {
					out = append(out, Finding{
						Sev: SevError, Kind: KindSSYNoBranch, Instr: i,
						Msg: fmt.Sprintf("SSY at %d has no divergent branch before its reconvergence point %d", i, in.Target),
					})
				}
			}
		case isa.OpSYNC:
			covered := false
			for j := i - 1; j >= 0; j-- {
				if p.Instrs[j].Op == isa.OpSSY && p.Instrs[j].Target > i {
					covered = true
					break
				}
			}
			if !covered {
				out = append(out, Finding{
					Sev: SevError, Kind: KindSyncNoRegion, Instr: i,
					Msg: fmt.Sprintf("SYNC at %d is outside every SSY region: the engine faults", i),
				})
			}
		}
	}
	out = append(out, pairSplitHazards(p)...)
	return out
}

// pairSplitHazards flags branch targets that land inside a contiguous
// initialization run of a register span some instruction consumes whole
// (an F64 pair or MMA fragment): jumping mid-run executes only part of
// the initialization and leaves the rest of the span stale.
func pairSplitHazards(p *isa.Program) []Finding {
	n := len(p.Instrs)
	if n == 0 {
		return nil
	}

	// Multi-register source spans consumed anywhere in the program.
	type span struct {
		base isa.Reg
		cnt  int
	}
	consumed := make(map[span]bool)
	for i := range p.Instrs {
		for _, s := range srcSpans(&p.Instrs[i]) {
			if s.N >= 2 {
				consumed[span{s.Base, s.N}] = true
			}
		}
	}
	if len(consumed) == 0 {
		return nil
	}

	// Branch targets, with the branch that jumps there.
	targets := make(map[int][]int)
	for i := range p.Instrs {
		if p.Instrs[i].Op == isa.OpBRA && p.Instrs[i].Target >= 0 && p.Instrs[i].Target < n {
			targets[p.Instrs[i].Target] = append(targets[p.Instrs[i].Target], i)
		}
	}
	if len(targets) == 0 {
		return nil
	}

	var out []Finding
	// Maximal runs of unconditional single-register writes to
	// consecutive ascending registers.
	for i := 0; i < n; {
		if !singleRegWrite(&p.Instrs[i]) {
			i++
			continue
		}
		j := i + 1
		for j < n && singleRegWrite(&p.Instrs[j]) &&
			p.Instrs[j].Dst == p.Instrs[j-1].Dst+1 {
			j++
		}
		runBase := p.Instrs[i].Dst
		runLen := j - i
		if runLen >= 2 {
			for sp := range consumed {
				if sp.base < runBase || int(sp.base)+sp.cnt > int(runBase)+runLen {
					continue
				}
				subStart := i + int(sp.base-runBase)
				subEnd := subStart + sp.cnt - 1
				for t := subStart + 1; t <= subEnd; t++ {
					for _, bra := range targets[t] {
						out = append(out, Finding{
							Sev: SevError, Kind: KindPairSplitBra, Instr: bra,
							Msg: fmt.Sprintf("branch at %d targets %d, splitting the initialization of %s..%s consumed as a %d-register span",
								bra, t, sp.base, sp.base+isa.Reg(sp.cnt-1), sp.cnt),
						})
					}
				}
			}
		}
		i = j
	}
	return out
}

// singleRegWrite reports an unconditional write of exactly one GPR.
func singleRegWrite(in *isa.Instr) bool {
	return in.Unconditional() && in.DstRegs() == 1
}
