package sim

import "gpurel/internal/isa"

// FaultKind is the architectural manifestation of a transient fault.
type FaultKind uint8

// Fault kinds. The first group mirrors the SASSIFI/NVBitFI injection
// modes; the second models storage strikes the beam campaign applies
// when ECC is disabled.
const (
	// FaultValueBit flips one bit of the destination value of the
	// triggered dynamic lane-operation (SASSIFI IOV, NVBitFI default).
	FaultValueBit FaultKind = iota
	// FaultRegIndex redirects the destination register of the triggered
	// lane-operation (SASSIFI IOA: instruction output address).
	FaultRegIndex
	// FaultPredBit flips a predicate register of the triggered lane
	// after the triggered operation completes (SASSIFI predicate mode).
	FaultPredBit
	// FaultAddrBit flips one bit of the effective address of the
	// triggered memory lane-operation (LDST-path strike).
	FaultAddrBit
	// FaultSkip suppresses the triggered warp-instruction entirely
	// (pipeline-latch strike observed only by the beam).
	FaultSkip

	// FaultRFBit flips a register-file bit of a specific resident thread
	// when the trigger count is reached.
	FaultRFBit
	// FaultSharedBit flips a shared-memory bit of a resident block.
	FaultSharedBit
	// FaultGlobalBit flips an allocated global-memory bit.
	FaultGlobalBit
)

// String names the fault kind.
func (k FaultKind) String() string {
	return [...]string{
		"value-bit", "reg-index", "pred-bit", "addr-bit", "skip",
		"rf-bit", "shared-bit", "global-bit",
	}[k]
}

// FaultPlan schedules exactly one fault in a run. Triggering is counted
// in dynamic lane-operations (thread-level executed instructions),
// optionally restricted by Filter; storage faults use the unfiltered
// lane-op stream as their logical clock.
type FaultPlan struct {
	Kind FaultKind

	// Filter restricts which lane-ops advance the trigger counter
	// (nil: all ops). SASSIFI campaigns filter by instruction class;
	// NVBitFI filters to GPR-writing instructions.
	Filter func(op isa.Op) bool

	// TriggerIndex is the index within the filtered lane-op stream at
	// which the fault fires.
	TriggerIndex uint64

	// Bit selects which bit to flip. Interpreted modulo the width of the
	// target (destination value, address, register index distance).
	Bit int

	// Storage-fault coordinates.
	Block  int    // linear CTA index
	Thread int    // thread within block
	Reg    int    // register index (FaultRFBit)
	BitIdx uint64 // bit within the shared/global region
}

// Fire is what a run's fault plan did: whether its trigger was reached
// and where its flip landed. The engine reports it in Result.Fire and
// never writes the plan, so one plan can be rerun, or run by several
// trials at once.
type Fire struct {
	// Fired reports whether the fault's trigger was reached during the
	// run. A plan that never fires (the trigger exceeds the dynamic
	// instruction count) leaves the run golden and the campaign
	// classifies it as Masked.
	Fired bool

	// Landed reports, for storage faults, whether the flipped bit
	// belonged to live (resident) state. A strike on a CTA that is not
	// resident hits dead silicon and is masked by construction.
	Landed bool

	// Bit / Width record, for a fired FaultValueBit plan, the bit
	// position actually flipped and the width of the destination window
	// it landed in (32 for a single register or store value, 64 for a
	// register pair or the MMA fragment window). Width stays 0 until a
	// flip is applied, letting campaigns attribute each trial to a bit
	// position for per-band cross-validation.
	Bit, Width int
}

// matches reports whether the op passes the plan's filter.
func (p *FaultPlan) matches(op isa.Op) bool {
	return p.Filter == nil || p.Filter(op)
}
