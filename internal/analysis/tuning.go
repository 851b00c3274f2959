package analysis

// Central tuning table for the ACE transfer model. Every masking weight
// the analyzer uses lives here — the per-opcode pass factors, the
// terminal sink weights, and the bit-resolved knobs the backward solver
// (backward.go) applies when a per-bit fact cannot be *proven* from the known-bits/range
// lattices.
//
// The factors are calibrated against the paper's §VI injection
// campaigns (see faultinj.CrossValTolerance); the per-bit tables
// redistribute vulnerability across bit positions.

// Terminal sink weights: where a corrupted value meets architectural
// output directly. SDC/DUE pairs; per channel, probability the flip is
// architecturally visible there.
const (
	// SinkStoreSDC: a value stored to global memory (STG/RED) is
	// architectural output.
	SinkStoreSDC = 1.0
	// SinkSharedStoreSDC: shared memory round-trips back through LDS
	// before it can reach output; memory is not tracked, so attenuate.
	SinkSharedStoreSDC = 0.8
	// SinkBranchSDC/DUE: a flipped branch guard takes the wrong path:
	// wrong-output SDC or livelock/fetch-overrun DUE in comparable
	// measure.
	SinkBranchSDC = 0.4
	SinkBranchDUE = 0.4
)

// Pass factors: the attenuation applied when a value flows through a
// consuming instruction into that instruction's own destination — the
// fraction of input-bit flips expected to survive into the result.
// The backward solver applies them (or the bit tables below) per opcode,
// through dataStencil, for operands whose masking it cannot prove.
const (
	// PassCmp: a single input bit rarely crosses the comparison
	// threshold — strong logical masking before the predicate.
	PassCmp = 0.3
	// PassGuard: flipping the guard toggles whether the consumer writes
	// at all; its (stale or spurious) result is wrong where used.
	PassGuard = 0.8
	// PassSelCond: SEL picks the other input — wrong half the time.
	PassSelCond = 0.5
	PassMove    = 1.0
	// PassSel: each SEL input is selected about half the time.
	PassSel  = 0.5
	PassIAdd = 1.0
	PassXor  = 1.0
	// PassAndOr: AND/OR mask roughly half the input bits (bitflow
	// proves the exact mask when the other operand is known).
	PassAndOr = 0.5
	// PassShift: bits shifted out are lost (bitflow proves which when
	// the shift amount is a known constant).
	PassShift = 0.7
	// PassMinMax: only the selected operand survives.
	PassMinMax = 0.5
	PassIMul   = 0.8
	// PassMMA: wide dot-products propagate most input faults.
	PassMMA = 0.8
	// PassMufu: transcendentals compress their domain.
	PassMufu = 0.5
	// PassCvt: width conversion truncates or renormalizes.
	PassCvt     = 0.6
	PassDefault = 0.8
)

// Bit-resolved address sink. A flipped address bit reads or writes the
// wrong location (cf. the simulator's address-fault semantics).
// Low-order address bits move an access within its (page-aligned)
// allocation — wrong data, SDC-leaning — while high-order bits throw it
// out of bounds — DUE-leaning.
const (
	// AddrPageBits: address bits below this index stay inside a
	// 4 KiB-page-sized region around the intended location.
	AddrPageBits = 12
	AddrLowSDC   = 0.55
	AddrLowDUE   = 0.35
	AddrHighSDC  = 0.35
	AddrHighDUE  = 0.55
)

// Floating-point per-bit propagation profile, by region of the IEEE
// layout: low mantissa bits are absorbed by alignment/rounding, high
// mantissa bits mostly survive, exponent bits rescale the whole value,
// and the sign bit flips it outright. fpBitFactor maps a bit position
// to its region for 16/32/64-bit formats.
const (
	FPMantLowFactor  = 0.55
	FPMantHighFactor = 0.8
	FPExpFactor      = 0.95
	FPSignFactor     = 0.9
	// FPMulScale derates multiplies relative to adds by the 0.70/0.75
	// multiply-to-add pass ratio the FP profile was calibrated with.
	FPMulScale = 0.93
)

// fpBitFactor returns the per-bit FP propagation base factor for a
// value of the given IEEE width (16, 32, or 64). Bits outside the
// format fall back to the low-mantissa factor.
func fpBitFactor(width, bit int) float64 {
	var mantLow, exp, sign int
	switch width {
	case 16:
		mantLow, exp, sign = 5, 10, 15 // 1-5-10
	case 64:
		mantLow, exp, sign = 29, 52, 63 // 1-11-52
	default:
		mantLow, exp, sign = 12, 23, 31 // 1-8-23
	}
	switch {
	case bit == sign:
		return FPSignFactor
	case bit >= exp:
		return FPExpFactor
	case bit >= mantLow:
		return FPMantHighFactor
	case bit >= 0:
		return FPMantLowFactor
	}
	return FPMantLowFactor
}

// Integer per-bit propagation profile. Value-bit injections into the
// low-order bits of integer data are disproportionately masked
// downstream — a flipped sub-word bit of an address still lands in the
// same element after scaling and bounds clamping, and low key bits
// rarely change a compare outcome — so integer ALU consumers (add,
// multiply-add, min/max, select) attenuate the lowest IntLowBits of the
// value they read. Copies, logic ops, and stores stay exact: a copied
// or stored bit propagates architecturally bit-for-bit. This is the
// integer analogue of the FP mantissa profile; on integer-dominated
// kernels it moves the estimate in the direction the injection
// cross-validation measures.
const (
	IntLowBits      = 8
	IntLowBitFactor = 0.85
)

// intBitFactor returns the per-bit integer attenuation for a flipped
// bit at the given position of the consumed value window.
func intBitFactor(bit int) float64 {
	if bit < IntLowBits {
		return IntLowBitFactor
	}
	return 1
}

// Narrowing-conversion bit factors: input bits the conversion drops are
// mostly absorbed by rounding; surviving bits carry through strongly.
const (
	CvtDropFactor = 0.2
	CvtKeepFactor = 0.85
)

// DUE-mode routing knobs (the mode sink table, backward.go). The
// terminal DUE sinks above carry a mechanism: address sinks are
// illegal-address, backedge and EXIT guards are hangs,
// barrier/reconvergence guards are sync errors. Only the forward-branch
// guard is mechanically ambiguous.
const (
	// BranchForwardHangFrac: the share of a forward (non-backedge,
	// non-divergent) branch guard's DUE sink attributed to hangs — the
	// wrong path can overrun the program end — with the remainder left
	// unattributed. Backedges and divergent-region branches are routed
	// whole, so only this split is a guess rather than a proof.
	BranchForwardHangFrac = 0.5

	// BackedgeMemHangFrac: the hang share of a backedge guard whose loop
	// body touches memory. Overrun iterations index past the proven
	// bound and die on the out-of-bounds access long before MaxCycles,
	// so most of the trip-count DUE converts to illegal-address — the
	// conversion the injection campaigns measure (mode cross-validation,
	// faultinj.DUEModeTolerance). Memory-free loop bodies route whole to
	// hang: they have nothing to fault on but the watchdog.
	BackedgeMemHangFrac = 0.3
)

// DUE-mode exposure lint thresholds (see dueModeFindings in lint.go).
// Both findings anchor to a *failed proof*, not to raw exposure —
// ordinary address setup and counted loops stay clean because their
// proofs succeed — so the thresholds only separate a failed proof's
// residual exposure from transitive trickle.
const (
	// AddrExposureMin flags address-feeding sites whose page-window
	// containment proof failed (unguarded-address-arith): the mean
	// illegal-address mass over the low AddrPageBits band, which a
	// successful containment proof drives to exactly 0 and a failed one
	// leaves near AddrLowDUE.
	AddrExposureMin = 0.15
	// SyncExposureMin flags value sites whose flips reach the
	// reconvergence machinery transitively (sync-fragile-region) with
	// more than trickle strength. A value one unproven compare away
	// from a divergent-region branch carries PassCmp * SinkBranchDUE =
	// 0.12 — below the bar; direct multi-path chains exceed it.
	SyncExposureMin = 0.2
)

// DeadBitSpanMin is the smallest contiguous run of provably-masked
// destination bits the dead-bit-span lint reports. Shorter runs are
// routine (rounding slack, small masks) and would drown the report.
const DeadBitSpanMin = 12

// Optimization-matrix lint thresholds (see optFindings in lint.go and
// the explainer metrics in explain.go).
const (
	// LongLiveRangeMin is the smallest def-to-furthest-use distance
	// (instructions, loop-carried uses wrapping) the long-live-range
	// lint reports. Spans below it are ordinary expression temporaries;
	// above it the value's register-file residency dominates its
	// exposure, the effect the matrix's O0/O1 rows make measurable.
	LongLiveRangeMin = 28

	// SpillExposureMin is the smallest STS→LDS round-trip window the
	// spill-exposure lint reports. The spill variant's own windows are
	// always at least this long.
	SpillExposureMin = 2

	// UnrollBodyMin / UnrollACEMassMin gate the unroll-inflation lint:
	// a tandem-repeated opcode sequence of at least UnrollBodyMin
	// instructions, repeated at least twice, whose total unmasked ACE
	// mass (summed over every bit of every repeated instruction) is at
	// least UnrollACEMassMin bits. Smaller repeats are address setup;
	// lighter ones replicate mostly-dead code and do not inflate the
	// vulnerable surface.
	UnrollBodyMin    = 3
	UnrollACEMassMin = 96.0
)
