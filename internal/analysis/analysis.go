// Package analysis is a static dataflow analyzer for the SASS-like IR of
// internal/isa. It constructs a basic-block control-flow graph from the
// BRA/SSY/SYNC/EXIT terminators, runs backward liveness and reaching-
// definition (def-use) analysis over the general-purpose and predicate
// register files — handling F64 register pairs, wide loads/stores, and
// MMA fragments via DstRegs/SrcRegSpans — and from those computes
// per-instruction ACE (Architecturally Correct Execution) fractions: the
// analytically-derived probability that a bit flipped in an
// instruction's destination reaches program output.
//
// Three consumers build on the analyzer:
//
//   - Result.Estimate produces injection-free AVF estimates that
//     internal/fit's Eq. 1-4 predictor accepts as a drop-in replacement
//     for injection-derived AVFs, and that internal/faultinj
//     cross-validates against dynamic campaigns.
//   - Result.Findings is a lint report: dead stores, unreachable blocks,
//     use-before-def registers, and SSY divergence-without-reconvergence
//     hazards. internal/asm's verifier rejects the Error-severity subset
//     at build time; `gpurel lint` reports everything.
//   - DeadFraction measures the architecturally-dead share of a program,
//     the static analogue of the ~18% SASSIFI-vs-NVBitFI AVF gap the
//     paper attributes to toolchain codegen differences (§VI).
//
// The analyzer is purely architectural: it sees register dataflow, not
// memory contents, scheduler state, or pipeline latches. Faults in
// structures it cannot see (the §VII DUE sources) are out of scope and
// tracked as ROADMAP follow-on work.
package analysis

import (
	"sync"

	"gpurel/internal/isa"
)

// Result bundles every product of one analyzer run over a program.
//
// A Result is immutable once AnalyzeLaunch returns, apart from the two
// products computed on first use (DUEModes, Findings), which are
// guarded by their own sync.Once: one Result may be shared by any
// number of goroutines.
type Result struct {
	Prog *isa.Program
	CFG  *CFG

	// LiveOut / PredLiveOut give, per instruction, the registers whose
	// values may still be read on some path after it executes.
	LiveOut     []RegSet
	PredLiveOut []PredSet

	// ACEVec holds the bit-resolved ACE vectors (see backward.go).
	ACEVec []ACEVector

	// Facts / PredFacts are the forward known-bits/range facts per
	// definition and the proven SETP outcomes.
	Facts     []ValueFact
	PredFacts []PredFact

	// Bounds is the launch geometry the forward pass was seeded with
	// (nil when analyzed without one).
	Bounds *Bounds

	// DefUse holds the def-use edges the ACE propagation walked.
	DefUse *DefUse

	bf *bitflow

	modesOnce sync.Once
	modes     []DUEModeVec
	lintOnce  sync.Once
	findings  []Finding
}

// Analyze runs the full pipeline — CFG, liveness, reaching definitions,
// known-bits/range abstract interpretation, bit-resolved ACE
// propagation — over one program, without launch-geometry seeding.
func Analyze(p *isa.Program) *Result { return AnalyzeLaunch(p, nil) }

// AnalyzeLaunch is Analyze with the forward pass seeded from a launch
// geometry: thread-index special registers get the bounds the geometry
// implies, which tightens the ranges behind guard compares and masks.
// The DUE-mode solve and the lint run on first use (DUEModes,
// Findings): most consumers read neither.
func AnalyzeLaunch(p *isa.Program, bounds *Bounds) *Result {
	r := &Result{Prog: p, Bounds: bounds}
	r.CFG = BuildCFG(p)
	r.LiveOut, r.PredLiveOut = liveness(p, r.CFG)
	r.DefUse = buildDefUse(p, r.CFG)
	r.bf = newBitflow(p, r.DefUse, bounds)
	r.bf.forward()
	r.Facts, r.PredFacts = r.bf.facts, r.bf.preds
	r.ACEVec = r.bf.aceVectors()
	return r
}

// DUEModes returns the per-bit DUE-mode split of each ACEVec entry's
// DUE channel (see duemode.go and backward.go), solving it on first
// use.
func (r *Result) DUEModes() []DUEModeVec {
	r.modesOnce.Do(func() { r.modes = r.bf.dueModes(r.ACEVec) })
	return r.modes
}

// Findings returns the lint report, in instruction order, computing it
// on first use.
func (r *Result) Findings() []Finding {
	r.lintOnce.Do(func() { r.findings = lint(r) })
	return r.findings
}

// Errors returns the Error-severity findings.
func (r *Result) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings() {
		if f.Sev == SevError {
			out = append(out, f)
		}
	}
	return out
}

// Warnings returns the Warn-severity findings.
func (r *Result) Warnings() []Finding {
	var out []Finding
	for _, f := range r.Findings() {
		if f.Sev == SevWarn {
			out = append(out, f)
		}
	}
	return out
}
