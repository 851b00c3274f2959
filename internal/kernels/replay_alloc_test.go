package kernels

import (
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/sim"
)

// TestReplayAllocsPerLaunch guards allocation-free replay. A warmed
// FGAUSSIAN runner replays a plan whose launch-0 fault ends as an SDC,
// so the replay simulates all 46 launches with no boundary cutoff; each
// simulated launch may allocate at most its sim.Result and the Result's
// PerOpLane map (replays run lean, so the map is not even made). The
// per-trial costs (the TrialRecord diff) ride within that allowance.
// Before engine state was recycled and replay memories were sized to
// the allocation high-water mark, the same replay made 1227
// allocations, 26.7 per launch.
func TestReplayAllocsPerLaunch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool puts")
	}
	r, err := NewRunner("FGAUSSIAN", GaussianBuilder(), device.K40c(), asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	launches := len(r.Instance().Launches)
	ops := r.GoldenProfiles()[0].LaneOps
	var plan *sim.FaultPlan
	for i := uint64(0); i < 64 && plan == nil; i++ {
		p := &sim.FaultPlan{Kind: sim.FaultValueBit, TriggerIndex: ops * i / 64, Bit: 20}
		rec, err := r.RunTrialWithFault(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Outcome == SDC {
			plan = p
		}
	}
	if plan == nil {
		t.Fatal("no launch-0 trigger produced an SDC")
	}
	plans := make([]sim.FaultPlan, 32)
	for i := range plans {
		plans[i] = *plan
	}
	next := 0
	allocs := testing.AllocsPerRun(len(plans)-1, func() {
		rec, err := r.RunTrialWithFault(&plans[next], 0)
		next++
		if err != nil || rec.Outcome != SDC {
			t.Fatalf("replay gave %v, %v; want SDC", rec.Outcome, err)
		}
	})
	perLaunch := allocs / float64(launches)
	t.Logf("%.0f allocations per replay of %d launches: %.2f per launch", allocs, launches, perLaunch)
	if perLaunch > 2 {
		t.Errorf("replay allocates %.2f times per simulated launch, want at most 2 (the Result and its PerOpLane map)", perLaunch)
	}
}
