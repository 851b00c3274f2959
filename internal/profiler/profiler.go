// Package profiler computes the kernel characterization the paper gets
// from NVPROF / Nsight Compute: per-code instruction mix (Figure 1),
// issued IPC, achieved occupancy, registers per thread, and shared
// memory per block (Table I). The FIT prediction model of §IV consumes
// exactly these metrics.
package profiler

import (
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
)

// CodeProfile is the Table-I row plus Figure-1 mix of one workload.
type CodeProfile struct {
	Name string

	SharedBytes   int // max shared memory per block over all kernels
	RegsPerThread int // max registers per thread over all kernels
	IPC           float64
	Occupancy     float64

	// MemoryBytes is the storage footprint f(MEM) of Equation 3 sums
	// over: the register file and shared memory claimed by the largest
	// launch plus the allocated device memory.
	MemoryBytes int

	// Mix is the dynamic instruction-class composition (fractions of
	// executed lane-operations), the Figure-1 bars.
	Mix map[isa.Class]float64

	// PerOpLane is the dynamic lane-op count per opcode, summed over
	// launches; the beam exposure model and the predictor's f(INST)
	// terms derive from it.
	PerOpLane map[isa.Op]uint64

	// Residency is the execution-weighted mean hidden-structure
	// occupancy over all launches (counters summed before dividing, so
	// long launches dominate exactly by their execution share). The
	// per-launch residency timelines stay on Launches; see Timelines.
	Residency sim.Residency

	// Launch-level totals.
	TotalLaneOps uint64
	TotalCycles  int64
	Launches     []sim.Profile
}

// Timelines returns the per-launch residency timelines recorded by the
// golden run, in launch order.
func (cp *CodeProfile) Timelines() []sim.Timeline {
	out := make([]sim.Timeline, len(cp.Launches))
	for i := range cp.Launches {
		out[i] = cp.Launches[i].Timeline
	}
	return out
}

// Profile characterizes a workload from its golden runner and the
// runner's cached build (for the static kernel footprints).
func Profile(r *kernels.Runner) (*CodeProfile, error) {
	inst := r.Instance()
	cp := &CodeProfile{
		Name: r.Name,
		Mix:  make(map[isa.Class]float64),
	}
	maxOnChip := 0
	for _, l := range inst.Launches {
		if l.Prog.SharedMem > cp.SharedBytes {
			cp.SharedBytes = l.Prog.SharedMem
		}
		if l.Prog.NumRegs > cp.RegsPerThread {
			cp.RegsPerThread = l.Prog.NumRegs
		}
		blocks := l.GridX * l.GridY
		onChip := l.Prog.NumRegs*l.BlockThreads*blocks*4 + l.Prog.SharedMem*blocks
		if onChip > maxOnChip {
			maxOnChip = onChip
		}
	}
	cp.MemoryBytes = maxOnChip + inst.Global.AllocatedBytes()

	// Workload metrics come from the summed launch counters through the
	// same sim.Profile accessors a single launch uses — one formula,
	// zero-guarded there, instead of a re-derivation here.
	cp.Launches = append(cp.Launches, r.GoldenProfiles()...)
	agg := sim.Aggregate(cp.Launches)
	cp.TotalCycles = agg.Cycles
	cp.TotalLaneOps = agg.LaneOps
	cp.PerOpLane = agg.PerOpLane
	cp.IPC = agg.IPC()
	cp.Occupancy = agg.AchievedOccupancy(r.Dev)
	cp.Residency = agg.Residency(r.Dev)
	if cp.TotalLaneOps > 0 {
		for op, n := range cp.PerOpLane {
			cp.Mix[op.ClassOf()] += float64(n)
		}
		for c := range cp.Mix {
			cp.Mix[c] /= float64(cp.TotalLaneOps)
		}
	}
	return cp, nil
}

// Phi is the parallelism-management factor of Equation 4:
// AchievedOccupancy * IPC. High values mean many functional units are
// simultaneously exposed to strikes.
func (cp *CodeProfile) Phi() float64 { return cp.Occupancy * cp.IPC }
