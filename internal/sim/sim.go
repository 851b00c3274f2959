// Package sim is the SIMT architectural simulator: it executes SASS-like
// programs (internal/isa, built by internal/asm) on a simulated GPU
// (internal/device) with warp-level scheduling, scoreboarding, PDOM
// divergence reconvergence, block residency governed by the occupancy
// rules, and cycle-approximate timing.
//
// The simulator is the injection surface shared by all three
// methodologies of the paper: the profiler reads its dynamic counters,
// the fault injectors perturb architectural state through FaultPlan, and
// the beam campaign adds storage and hidden-resource strikes on top.
//
// Runs are fully deterministic: the same program, inputs, and fault plan
// produce the same result, which the injectors rely on for golden
// comparison.
package sim

import (
	"fmt"
	"io"

	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// Config describes one kernel launch.
type Config struct {
	Device  *device.Device
	Program *isa.Program

	// GridX and GridY give the block grid; BlockThreads is the 1-D block
	// size (CTAs with 2-D indexing read SR_CTAID.X/Y).
	GridX, GridY int
	BlockThreads int

	// MaxCycles is the watchdog budget; exceeding it is a DUE (hang).
	// Zero means 50 million cycles.
	MaxCycles int64

	// Fault optionally perturbs the run (nil for golden runs).
	Fault *FaultPlan

	// Trace, when non-nil, receives one line per issued warp-instruction
	// ("cycle sm warp pc disassembly"), the dynamic analogue of
	// Program.Disassemble. Tracing slows simulation considerably; use it
	// for debugging kernels, not campaigns.
	Trace io.Writer
}

// DUEReason returns the human-readable detail of a DUE outcome, and ""
// otherwise.
func (r *Result) DUEReason() string { return r.due.String() }

// Outcome classifies how a run terminated.
type Outcome uint8

// Run outcomes. SDCs are not visible at this level: they are determined
// by the workload's output comparator.
const (
	OutcomeOK Outcome = iota
	OutcomeDUE
)

// String names the outcome.
func (o Outcome) String() string {
	if o == OutcomeOK {
		return "ok"
	}
	return "DUE"
}

// Result is the outcome of one launch.
type Result struct {
	Outcome Outcome
	// DUEMode is the typed mechanism of a DUE outcome (DUENone
	// otherwise); DUEReason gives the human-readable detail.
	DUEMode DUEMode
	due     dueCause
	// Profile is the launch's dynamic profile. Run and RunGolden record
	// it in full, with its Timeline. A launch of a Trial is classified
	// by outcome alone and runs lean: its Profile leaves out the
	// profile-only accounting (PerOpLane, the residency and
	// fetch-redirect counters, the Timeline); the outcome, the cycle
	// count and the fault-trigger clocks are unaffected.
	Profile Profile

	// Fire is what the launch's fault plan did (zero without one).
	Fire Fire

	// The rest of a Result describes one launch of a Trial; Run and
	// RunGolden leave it zero.

	// RejoinedGolden reports that the fault launch stopped early because
	// its full state matched a golden sub-launch image: the rest of the
	// launch — and therefore the program — would replay the golden run
	// exactly, so the fault is architecturally masked. The Profile of
	// such a run covers only the simulated prefix.
	RejoinedGolden bool

	// StartImage is the index, in the golden checkpoint sequence, of the
	// checkpoint the fault launch started from: 0 for the launch
	// boundary, more for a sub-launch image.
	StartImage int

	// Logged reports that the launch ran in log mode (blocklog.go): only
	// the blocks a fault can reach ran, alone, in their golden issue
	// order. Skipped reports that a launch after the fault launch ran no
	// block at all, since none reads a dirty word.
	Logged, Skipped bool
	// Replayed is the number of blocks a Logged launch ran, and Resolved
	// the global accesses of its lone replayed block that the fence
	// resolved from the golden write seqs of another block's word.
	Replayed, Resolved int

	// LogFallback is why the launch ran on the cycle engine although it
	// asked for its block log: a log-mode attempt was abandoned, or none
	// was tried (LogIneligible, LogMultiReader). LogOK otherwise.
	LogFallback LogFallback
}

// Profile carries the dynamic execution metrics the profiler and the
// beam's exposure model consume.
type Profile struct {
	Cycles     int64
	WarpInstrs uint64
	LaneOps    uint64

	// PerOpLane counts executed lane-level operations per opcode.
	PerOpLane map[isa.Op]uint64

	// ActiveWarpCycles sums, over all cycles and SMs, the number of
	// resident unfinished warps; SMCycles sums the cycles during which
	// each SM had at least one live warp.
	ActiveWarpCycles uint64
	SMCycles         uint64

	// SMsUsed is the number of SMs that received at least one block.
	SMsUsed int

	// Residency counters (see Residency for the derived rates): CtrlOps
	// counts issued fetch-redirecting instructions, LoadResidency
	// integrates outstanding-load latency over issued loads, and
	// DivResidency integrates live divergence-stack entries over issued
	// warp-instructions.
	CtrlOps       uint64
	LoadResidency uint64
	DivResidency  uint64

	// Timeline is the per-launch residency sample series, recorded by
	// Run and RunGolden (empty on a launch of a Trial).
	Timeline Timeline
}

// IPC returns issued warp-instructions per SM-cycle, the metric NVIDIA
// profilers call "issued IPC" and Table I reports.
func (p *Profile) IPC() float64 {
	if p.SMCycles == 0 {
		return 0
	}
	return float64(p.WarpInstrs) / float64(p.SMCycles)
}

// AchievedOccupancy returns average resident warps per SM-cycle divided
// by the maximum resident warps, as in Table I.
func (p *Profile) AchievedOccupancy(dev *device.Device) float64 {
	if p.SMCycles == 0 {
		return 0
	}
	return float64(p.ActiveWarpCycles) / float64(p.SMCycles) / float64(dev.MaxWarpsPerSM)
}

// Run launches the kernel and simulates it to completion, recording the
// full Profile with its Timeline. The engine state comes from a pool and
// goes back to it once the Result is built.
func Run(cfg Config, global *mem.Global) (*Result, error) {
	e, err := newEngine(cfg, global, true)
	if err != nil {
		return nil, err
	}
	res := e.run()
	e.release()
	return res, nil
}

// RunGolden simulates a fault-free launch like Run and returns its
// checkpoint sequence for Trial.Launch: first the launch boundary (global
// memory before the launch), then full-state sub-launch images on the
// checkpoint policy (checkpoint.go). budget is the bytes the sub-launch
// images may take, each charged its memory snapshot plus the block
// state allowance; a launch where fewer than two would fit records
// none.
func RunGolden(cfg Config, global *mem.Global, budget int) (*Result, []*LaunchImage, error) {
	e, err := newEngine(cfg, global, true)
	if err != nil {
		return nil, nil, err
	}
	seq := []*LaunchImage{{Mem: global.Snapshot()}}
	if n := min(budget/(global.AllocatedBytes()+imageStateBytes), maxImages); n >= 2 {
		e.rec = &recorder{interval: imageInterval, max: n, nextAt: imageInterval}
	}
	res := e.run()
	if e.rec != nil {
		seq = append(seq, e.rec.images...)
	}
	e.release()
	return res, seq, nil
}

func validate(cfg Config) error {
	switch {
	case cfg.Device == nil:
		return fmt.Errorf("sim: nil device")
	case cfg.Program == nil:
		return fmt.Errorf("sim: nil program")
	case cfg.GridX <= 0 || cfg.GridY <= 0:
		return fmt.Errorf("sim: invalid grid %dx%d", cfg.GridX, cfg.GridY)
	case cfg.BlockThreads <= 0 || cfg.BlockThreads > 1024:
		return fmt.Errorf("sim: invalid block size %d", cfg.BlockThreads)
	case cfg.Program.SharedMem > cfg.Device.SharedMemPerSM:
		return fmt.Errorf("sim: kernel needs %dB shared, SM has %dB",
			cfg.Program.SharedMem, cfg.Device.SharedMemPerSM)
	}
	return nil
}
