package sim

import (
	"gpurel/internal/device"
	"gpurel/internal/isa"
)

// Runtime residency telemetry. The engine samples, per cycle bucket, the
// occupancy of the management structures the hidden-resource model cares
// about: scheduler issue slots, outstanding-load (LDST queue) state,
// divergence-stack depth, and fetch/control-transfer activity. The
// per-launch Timeline keeps a fixed bucket count — when a launch outruns
// the current bucket width, adjacent buckets are folded pairwise and the
// width doubles — so memory stays O(1) per launch regardless of cycle
// count. Run and RunGolden sample (golden runs); the lean engines of
// fault replays do not, and pay nothing in the hot loop.

// TimelineBuckets is the fixed per-launch bucket count. 64 buckets give
// the consumers (profiler, residency report) enough phase resolution to
// see prologue/steady-state/drain transitions while keeping a launch's
// telemetry footprint constant.
const TimelineBuckets = 64

// TimelineBucket accumulates the engine's residency counters over one
// bucket of device cycles.
type TimelineBucket struct {
	// Cycles is the device-cycle span the bucket actually covers (the
	// bucket width, clipped at the end of the run).
	Cycles int64

	// SMCycles and ActiveWarpCycles are the bucket's slice of the
	// Profile-level occupancy accounting.
	SMCycles         uint64
	ActiveWarpCycles uint64

	// Issued counts warp-instructions issued in the bucket (scheduler
	// slot activity); CtrlOps the subset that redirected the fetch
	// stream (BRA/SSY/SYNC).
	Issued  uint64
	CtrlOps uint64

	// LoadResidency integrates outstanding-load state: each issued load
	// contributes its full latency (the cycles its LDST-queue/MSHR entry
	// stays allocated). DivResidency integrates reconvergence-stack
	// depth: each issued warp-instruction contributes the number of
	// divergence entries live under it.
	LoadResidency uint64
	DivResidency  uint64
}

// Timeline is the per-launch residency sample series.
type Timeline struct {
	// BucketWidth is the device-cycle width of each bucket (a power of
	// two; the engine doubles it whenever the launch outruns the fixed
	// bucket count).
	BucketWidth int64
	Buckets     []TimelineBucket
}

// Residency summarizes measured hidden-structure occupancies of a
// profile (one launch, or a workload aggregate built by Aggregate). All
// rates are zero for an empty profile — no launch divides by zero.
type Residency struct {
	// SchedUtil is the fraction of scheduler issue slots that issued a
	// warp-instruction, per active SM-cycle.
	SchedUtil float64
	// FetchRate is the fraction of issued warp-instructions that
	// redirected the fetch stream (taken the control path).
	FetchRate float64
	// DivDepth is the mean number of live divergence-stack entries per
	// issued warp-instruction.
	DivDepth float64
	// LoadDepth is the mean number of outstanding loads per active
	// warp-cycle (LDST-queue/MSHR occupancy per resident warp).
	LoadDepth float64
	// WarpsPerSMCycle is the mean number of resident warps per active
	// SM-cycle (the per-warp hidden state the strike rate scales with).
	WarpsPerSMCycle float64
	// SMCyclesPerCycle is the mean number of active SMs per device cycle
	// (the per-SM hidden state floor).
	SMCyclesPerCycle float64
}

// Residency derives the measured occupancies from the profile's
// residency counters. Every ratio guards its denominator, so the zero
// Profile (an empty-grid or zero-cycle launch) yields all zeros rather
// than NaN/Inf.
func (p *Profile) Residency(dev *device.Device) Residency {
	var r Residency
	if p.SMCycles > 0 {
		r.SchedUtil = float64(p.WarpInstrs) / (float64(p.SMCycles) * float64(dev.SchedulersPerSM))
		r.WarpsPerSMCycle = float64(p.ActiveWarpCycles) / float64(p.SMCycles)
	}
	if p.Cycles > 0 {
		r.SMCyclesPerCycle = float64(p.SMCycles) / float64(p.Cycles)
	}
	if p.WarpInstrs > 0 {
		r.FetchRate = float64(p.CtrlOps) / float64(p.WarpInstrs)
		r.DivDepth = float64(p.DivResidency) / float64(p.WarpInstrs)
	}
	if p.ActiveWarpCycles > 0 {
		r.LoadDepth = float64(p.LoadResidency) / float64(p.ActiveWarpCycles)
	}
	return r
}

// Aggregate sums per-launch profiles into one workload-level profile, so
// callers derive workload metrics (IPC, occupancy, residency) from the
// same accessors a single launch uses. Timelines stay per-launch and are
// not merged; SMsUsed carries the widest launch.
func Aggregate(profiles []Profile) Profile {
	a := Profile{PerOpLane: make(map[isa.Op]uint64)}
	for i := range profiles {
		p := &profiles[i]
		a.Cycles += p.Cycles
		a.WarpInstrs += p.WarpInstrs
		a.LaneOps += p.LaneOps
		a.ActiveWarpCycles += p.ActiveWarpCycles
		a.SMCycles += p.SMCycles
		a.CtrlOps += p.CtrlOps
		a.LoadResidency += p.LoadResidency
		a.DivResidency += p.DivResidency
		if p.SMsUsed > a.SMsUsed {
			a.SMsUsed = p.SMsUsed
		}
		for op, n := range p.PerOpLane {
			a.PerOpLane[op] += n
		}
	}
	return a
}
