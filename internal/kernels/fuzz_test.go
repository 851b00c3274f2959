package kernels

import (
	"reflect"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/sim"
)

// FuzzReplayMatchesFull checks the checkpointed replay
// (RunTrialWithFault: start images, rejoins, boundary cutoffs, block
// logs and their fallbacks) against full re-simulation on random fault
// plans of all eight kinds. The kernels are small and cover every log
// path: HANDOFF's blocks read each other's words, CROSSSTORE's store
// can cross to the other block, RELAY's second launch reads a word
// before its writer does, QUICKSORT's one launch has foreign reads,
// BFS mixes block-independent launches with ones that are not (a fault
// at trigger 5,141 of its first launch dirties words that several
// blocks of its last launch read, which has foreign reads, so that
// launch falls back with sim.LogMultiReader),
// REDSUM's two launches each have a word with two writers, and a fault
// in FLUD's first launches dirties words that 24 blocks of a later
// launch read, which replay one after another. The FMXM address faults,
// and QUICKSORT's at trigger 44,199, move a lone replayed block's
// access onto another block's written word, and the fence resolves it
// from the word's golden write seqs: a load before its first write, a
// store past its last access, and (QUICKSORT) a load past it.
// Every log is recorded before the first plan. The seed corpus runs
// under plain go test; go test -fuzz=FuzzReplayMatchesFull explores
// further.
func FuzzReplayMatchesFull(f *testing.F) {
	codes := []struct {
		name  string
		build Builder
		opt   asm.OptLevel
	}{
		{"HANDOFF", handoffBuilder(false), asm.O0},
		{"CROSSSTORE", crossStoreBuilder(), asm.O0},
		{"RELAY", relayBuilder(false), asm.O0},
		{"QUICKSORT", QuicksortBuilder(), asm.O2},
		{"BFS", BFSBuilder(), asm.O2},
		{"REDSUM", redSumBuilder(), asm.O0},
		{"FLUD", LUDBuilder(), asm.O2},
		{"FMXM", MxMBuilder(isa.F32), asm.O2},
	}
	runners := make([]*Runner, len(codes))
	for i, c := range codes {
		r, err := NewRunner(c.name, c.build, device.K40c(), c.opt)
		if err != nil {
			f.Fatal(err)
		}
		askLogs(f, r)
		runners[i] = r
	}
	for _, s := range []struct {
		code, launch, kind uint8
		trigger            uint64
		bit                uint8
		gpr                bool
	}{
		{0, 0, uint8(sim.FaultValueBit), 5000, 3, false},
		{0, 0, uint8(sim.FaultAddrBit), 4100, 7, false},
		{1, 0, uint8(sim.FaultRegIndex), 130, 1, false},
		{2, 0, uint8(sim.FaultValueBit), 40, 6, false},
		{3, 0, uint8(sim.FaultValueBit), 91_000, 12, true},
		{3, 0, uint8(sim.FaultSkip), 40_000, 0, false},
		{3, 0, uint8(sim.FaultPredBit), 150_000, 0, false},
		{4, 4, uint8(sim.FaultValueBit), 900, 30, false},
		{4, 5, uint8(sim.FaultAddrBit), 2500, 9, true},
		{4, 1, uint8(sim.FaultRFBit), 800, 5, false},
		{4, 6, uint8(sim.FaultGlobalBit), 3000, 0, false},
		{5, 0, uint8(sim.FaultValueBit), 40, 4, false},
		{5, 1, uint8(sim.FaultAddrBit), 70, 3, true},
		{6, 0, uint8(sim.FaultValueBit), 40, 4, false},
		{6, 2, uint8(sim.FaultValueBit), 141, 12, false},
		{7, 0, uint8(sim.FaultAddrBit), 20_917, 14, false},
		{7, 0, uint8(sim.FaultAddrBit), 519_693, 12, true},
		{7, 0, uint8(sim.FaultAddrBit), 716_623, 7, false},
		{3, 0, uint8(sim.FaultAddrBit), 44_199, 9, false},
		{4, 0, uint8(sim.FaultValueBit), 5141, 3, false},
	} {
		f.Add(s.code, s.launch, s.kind, s.trigger, s.bit, s.gpr)
	}
	f.Fuzz(func(t *testing.T, code, launch, kind uint8, trigger uint64, bit uint8, gpr bool) {
		r := runners[int(code)%len(runners)]
		l := int(launch) % len(r.Instance().Launches)
		plan := &sim.FaultPlan{
			Kind:         sim.FaultKind(kind % 8),
			TriggerIndex: trigger % (r.GoldenProfiles()[l].LaneOps + 1),
			Bit:          int(bit % 64),
			Block:        int(trigger>>8) % 4,
			Thread:       int(trigger>>10) % 64,
			Reg:          int(trigger>>16) % 8,
			BitIdx:       trigger >> 4 % 4096,
		}
		if gpr {
			plan.Filter = isa.Op.WritesGPR
		}
		rec, err := r.RunTrialWithFault(plan, l)
		if err != nil {
			t.Fatal(err)
		}
		if full := runWithFaultFull(t, r, plan, l); !reflect.DeepEqual(rec, full) {
			t.Errorf("%s launch %d, %v at %d bit %d: checkpointed %+v, full re-sim %+v",
				r.Name, l, plan.Kind, plan.TriggerIndex, plan.Bit, rec, full)
		}
	})
}
