package kernels

import (
	"testing"
	"testing/quick"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/sim"
	"gpurel/internal/stats"
)

// Property: any single fault, of any kind, at any site, injected into any
// workload run either completes (Masked or SDC) or crashes cleanly (DUE).
// No panic, no infrastructure error, and the runner stays reusable. This
// is the safety property every campaign relies on.
func TestAnyFaultYieldsClassifiedOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("property test over fault space")
	}
	dev := device.K40c()
	runners := []*Runner{}
	for _, w := range []struct {
		name string
		b    Builder
	}{
		{"FHOTSPOT", HotspotBuilder(isa.F32)},
		{"QUICKSORT", QuicksortBuilder()},
		{"NW", NWBuilder()},
	} {
		r, err := NewRunner(w.name, w.b, dev, asm.O1)
		if err != nil {
			t.Fatal(err)
		}
		runners = append(runners, r)
	}
	rng := stats.NewRNG(0xfeed, 0xbeef)

	prop := func(kindRaw, bit uint8, trigger uint32, blk, thr, reg uint16) bool {
		r := runners[rng.IntN(len(runners))]
		kind := sim.FaultKind(kindRaw % 8)
		launches := r.GoldenProfiles()
		launch := rng.IntN(len(launches))
		plan := &sim.FaultPlan{
			Kind:         kind,
			TriggerIndex: uint64(trigger) % (launches[launch].LaneOps + 1),
			Bit:          int(bit),
			Block:        int(blk),
			Thread:       int(thr)%512 + 1,
			Reg:          int(reg),
			BitIdx:       uint64(trigger),
		}
		rec, err := r.RunTrialWithFault(plan, launch)
		if err != nil {
			t.Logf("infrastructure error for %v on %s: %v", kind, r.Name, err)
			return false
		}
		switch rec.Outcome {
		case Masked, SDC, DUE:
			return true
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fault plan whose trigger lies beyond the dynamic stream is
// always Masked (the strike missed the execution window).
func TestLateTriggerAlwaysMasked(t *testing.T) {
	dev := device.K40c()
	r, err := NewRunner("CCL", CCLBuilder(), dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	for kind := sim.FaultKind(0); kind < 5; kind++ {
		plan := &sim.FaultPlan{Kind: kind, TriggerIndex: 1 << 60, Bit: 7}
		rec, err := r.RunTrialWithFault(plan, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Outcome != Masked {
			t.Fatalf("kind %v with late trigger gave %v, want Masked", kind, rec.Outcome)
		}
	}
}
