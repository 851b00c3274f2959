// Package kernels implements the fifteen workloads of the paper's Table I
// as SASS-like programs for the SIMT simulator, together with host-side
// reference implementations, golden-output comparators, and the Runner
// used by the profiler, the fault injectors, and the beam campaign.
//
// Problem sizes are scaled down from the paper's (DESIGN.md §5): FIT and
// AVF are per-fault propagation statistics that do not depend on input
// size for these regular kernels, and the paper itself argues (§III-C)
// that FIT rates depend on resources used, not execution time.
package kernels

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
	"gpurel/internal/sim"
)

// Launch is one kernel invocation of a workload.
type Launch struct {
	Prog         *isa.Program
	GridX, GridY int
	BlockThreads int
}

// Instance is a configured, single-use workload: device memory is
// initialized, launches are ready, and Check knows the expected output.
type Instance struct {
	Name     string
	Dev      *device.Device
	Global   *mem.Global
	Launches []Launch

	// Check compares device memory against the host-computed golden
	// output; it returns true when the output is correct. CNN workloads
	// implement the paper's tolerance-aware criterion here (faults that
	// do not change the detection are not errors, §VI).
	Check func(g *mem.Global) bool

	// Output declares the geometry of the workload's primary output
	// buffer so SDC diffs can be classified by spatial pattern
	// (internal/patterns). Workloads without a natural output grid (the
	// micro-benchmarks) leave it nil; their SDCs stay unclassified.
	Output *OutputRegion
}

// OutputRegion is a dense Rows×Cols grid of elements of type DType
// starting at byte address Base. It is declarative only — comparators
// keep their own golden data — and exists so a corrupt word's byte
// address can be mapped onto the output grid.
type OutputRegion struct {
	Base  uint32
	Rows  int
	Cols  int
	DType isa.DType
}

// ElemWords returns the 32-bit words one element occupies (2 for F64;
// F16 elements are stored one per word, low half).
func (o *OutputRegion) ElemWords() int { return o.DType.Regs() }

// Locate maps a byte address to its (row, col) element coordinates.
// ok is false when the address falls outside the region.
func (o *OutputRegion) Locate(addr uint32) (row, col int, ok bool) {
	if addr < o.Base {
		return 0, 0, false
	}
	elem := int(addr-o.Base) / 4 / o.ElemWords()
	if elem >= o.Rows*o.Cols {
		return 0, 0, false
	}
	return elem / o.Cols, elem % o.Cols, true
}

// Builder constructs a fresh Instance for a device and compiler pipeline.
// Builders are deterministic: inputs come from fixed-seed generators.
type Builder func(dev *device.Device, opt asm.OptLevel) (*Instance, error)

// Outcome classifies one workload run, in the paper's taxonomy.
type Outcome uint8

// Outcomes of a (possibly fault-injected) run.
const (
	Masked Outcome = iota // completed, output correct
	SDC                   // completed, output silently corrupted
	DUE                   // crashed or hung
)

// String names the outcome. Out-of-range values (a corrupted or
// uninitialized Outcome) render as Outcome(n) instead of panicking.
func (o Outcome) String() string {
	switch o {
	case Masked:
		return "Masked"
	case SDC:
		return "SDC"
	case DUE:
		return "DUE"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// CorruptWord is one corrupted 32-bit word of a trial's output diff:
// its byte address and the golden and observed values.
type CorruptWord struct {
	Addr     uint32 `json:"addr"`
	Golden   uint32 `json:"golden"`
	Observed uint32 `json:"observed"`
}

// DiffBudgetWords caps the per-trial recorded diff. The cap bounds the
// record's footprint on campaigns with massive corruptions (a scattered
// strike can dirty a whole matrix); CorruptWords keeps the uncapped
// count so truncation loses only addresses, not magnitude.
const DiffBudgetWords = 64

// TrialRecord is the structured result of one faulted trial: the
// ternary outcome plus, for SDCs, a compact diff of the output region
// against the golden image. The diff is captured only after the
// comparator has already failed, so the Masked fast path (an empty
// dirty set, sub-launch rejoin) pays nothing.
type TrialRecord struct {
	Outcome Outcome

	// DUEMode is the typed mechanism of a DUE outcome (sim.DUENone for
	// non-DUE records, and for synthetic DUEs that were never simulated,
	// such as ECC-intercepted beam strikes).
	DUEMode sim.DUEMode

	// Diff holds the corrupted output words in ascending address order,
	// capped at DiffBudgetWords. When the instance declares an Output
	// region, whole elements are emitted — every word of an element with
	// at least one corrupt word, including its still-golden words — so
	// multi-word (F64) values stay decodable. Empty for Masked/DUE, and
	// for SDCs whose corruption lies entirely outside the scanned
	// region.
	Diff []CorruptWord

	// DiffTruncated reports that the budget cut the recorded diff short.
	DiffTruncated bool

	// CorruptWords counts every corrupt word in the scanned region,
	// regardless of the recording budget.
	CorruptWords int

	// Fire is what the fault did in its launch: whether it fired, and
	// where its flip landed (sim.Fire). Zero for records that never
	// simulated a fault, such as ECC-intercepted beam strikes.
	Fire sim.Fire
}

// Runner executes a workload repeatedly: once golden (capturing per-launch
// profiles, timing, and a checkpoint sequence per launch), then any
// number of times with fault plans.
//
// Each launch's golden checkpoint sequence (sim.RunGolden) starts at the
// launch boundary, device memory before the launch, and continues with
// full-state sub-launch images. A faulted replay restores the latest
// checkpoint preceding its trigger instead of re-simulating everything
// before it, and stops early as soon as its state provably rejoins
// golden: at a later sub-launch image of the fault launch, or at a
// launch boundary whose memory is bit-identical to golden. Device
// memory is the only state that crosses a launch boundary (registers,
// shared memory, and the divergence stacks die with the grid), so
// boundary equality is exact, as is the full-state image compare:
// campaign outcomes are bit-identical to full re-simulation for the
// same seed.
//
// A trial runs on a pooled sim.Trial, one launch step at a time
// (DESIGN §19). Past the fault launch it carries memory as the golden
// boundary plus a sparse dirty set, and on single-writer launches it
// replays only the blocks a fault can reach, alone, from their golden
// issue logs (sim.BlockLog), which the runner records lazily: the
// faulted block of an operation fault, from the fault's start image,
// and in each later launch the blocks whose golden reads meet the dirty
// set. A launch no block of which reads a dirty word is skipped.
type Runner struct {
	Name  string
	Build Builder
	Dev   *device.Device
	Opt   asm.OptLevel

	inst *Instance // cached build: programs, geometry, comparator
	// ckpts[i] is launch i's golden checkpoint sequence; ckpts[i][0] is
	// its boundary. final is device memory after the last launch: the
	// last dirty-set diff and the SDC diff read it.
	ckpts          [][]*sim.LaunchImage
	final          *mem.Snapshot
	goldenProfiles []sim.Profile
	goldenCycles   []int64

	// logs[i] is launch i's block log, recorded on first use (blockLog).
	// trials recycles the trials' replay state (sim.Trial), its memory
	// sized at the golden run's allocation high-water mark. It is held
	// by pointer: the runtime's pool registry must not reach (and keep
	// alive) the Runner through it.
	logs   []launchLog
	trials *sync.Pool

	// Replay accounting (read via ReplayStats and LogStats; atomic
	// because campaigns call RunTrialWithFault from many goroutines).
	subRestores atomic.Uint64 // replays started from a sub-launch image
	subRejoins  atomic.Uint64 // replays cut off at a sub-launch rejoin
	logged      atomic.Uint64 // launches finished in log mode
	prefixed    atomic.Uint64 // fault launches run in log mode from the start image
	skipped     atomic.Uint64 // later launches no block of which reads a dirty word
	resolved    atomic.Uint64 // accesses of lone replayed blocks resolved from write seqs
	fallbacks   [sim.LogIneligible + 1]atomic.Uint64

	// Static analyses, one per launch (Analyses), drawn from memo: the
	// owning cache's, or a private one outside a cache.
	memo         *analysisMemo
	analysesOnce sync.Once
	analyses     []*analysis.Result
}

// ImageBudgetBytes caps the approximate memory spent on sub-launch
// images per Runner, split evenly across launches. kernels.Cache
// expresses its default budget in this unit: one budget's worth of
// cache holds roughly one image-saturated runner.
const ImageBudgetBytes = 64 << 20

// NewRunner builds the workload once, performs the golden run, and
// records the checkpoint sequences that make faulted replays cheap.
func NewRunner(name string, build Builder, dev *device.Device, opt asm.OptLevel) (*Runner, error) {
	return newRunner(name, build, dev, opt, newAnalysisMemo())
}

// newRunner is NewRunner drawing launch analyses from memo.
func newRunner(name string, build Builder, dev *device.Device, opt asm.OptLevel, memo *analysisMemo) (*Runner, error) {
	r := &Runner{Name: name, Build: build, Dev: dev, Opt: opt, memo: memo}
	inst, err := build(dev, opt)
	if err != nil {
		return nil, fmt.Errorf("kernels: building %s: %w", name, err)
	}
	r.inst = inst
	budget := ImageBudgetBytes / len(inst.Launches)
	for i, l := range inst.Launches {
		// The golden run records the full profile with its residency
		// timeline; faulted replays run lean (RunTrialWithFault).
		res, seq, err := sim.RunGolden(sim.Config{
			Device: dev, Program: l.Prog,
			GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads,
		}, inst.Global, budget)
		if err != nil {
			return nil, fmt.Errorf("kernels: golden run of %s launch %d: %w", name, i, err)
		}
		if res.Outcome != sim.OutcomeOK {
			return nil, fmt.Errorf("kernels: golden run of %s launch %d crashed: %s",
				name, i, res.DUEReason())
		}
		r.goldenProfiles = append(r.goldenProfiles, res.Profile)
		r.goldenCycles = append(r.goldenCycles, res.Profile.Cycles)
		r.ckpts = append(r.ckpts, seq)
	}
	r.final = inst.Global.Snapshot()
	hwm := r.final.AllocatedBytes()
	for _, seq := range r.ckpts {
		hwm = max(hwm, seq[0].Mem.AllocatedBytes())
	}
	r.logs = make([]launchLog, len(inst.Launches))
	r.trials = &sync.Pool{New: func() any { return sim.NewTrial(hwm) }}
	if !inst.Check(inst.Global) {
		return nil, fmt.Errorf("kernels: golden run of %s fails its own check", name)
	}
	return r, nil
}

// MemoryFootprint approximates the bytes the runner retains for the
// life of the cache entry: the instance's device memory, the golden
// checkpoints, the final memory, and every launch's block log at the
// size it takes once recorded (sim.BlockLogBytes), charged from the
// start so the cache budgets a runner by what it will hold. A launch
// found not single-writer keeps no log, so its charge is an upper
// bound. The trial pool is excluded — it grows with concurrent
// replays, not with cache residency. kernels.Cache charges this
// against its byte budget when deciding evictions.
func (r *Runner) MemoryFootprint() int {
	total := r.inst.Global.CapacityBytes() + r.final.SizeBytes()
	for i, seq := range r.ckpts {
		for _, img := range seq {
			total += img.FootprintBytes()
		}
		l := r.inst.Launches[i]
		total += sim.BlockLogBytes(r.goldenProfiles[i].WarpInstrs, l.GridX*l.GridY, seq[0].Mem.AllocatedBytes()/4, r.storeWords(i), i > 0)
	}
	return total
}

// storeWords bounds the words launch i writes in golden: its global
// store lanes, each as wide as its widest store, and its reduction lanes.
func (r *Runner) storeWords(i int) int {
	width := uint64(1)
	for _, in := range r.inst.Launches[i].Prog.Instrs {
		if in.Op == isa.OpSTG && in.Wide {
			width = 2
		}
	}
	lanes := r.goldenProfiles[i].PerOpLane
	return int(lanes[isa.OpSTG]*width + lanes[isa.OpRED])
}

// Instance returns the cached build artifacts: assembled programs,
// launch geometry, the post-golden-run memory, and the comparator.
// Callers must treat it as read-only; faulted replays never touch it.
func (r *Runner) Instance() *Instance { return r.inst }

// GoldenProfiles returns the per-launch golden profiles.
func (r *Runner) GoldenProfiles() []sim.Profile { return r.goldenProfiles }

// TotalLaneOps sums lane-ops over all launches, optionally filtered.
func (r *Runner) TotalLaneOps(filter func(op isa.Op) bool) uint64 {
	var total uint64
	for i := range r.goldenProfiles {
		for op, n := range r.goldenProfiles[i].PerOpLane {
			if filter == nil || filter(op) {
				total += n
			}
		}
	}
	return total
}

// LaunchLaneOps returns per-launch lane-op counts, optionally filtered,
// used to pick the launch a sampled fault lands in.
func (r *Runner) LaunchLaneOps(filter func(op isa.Op) bool) []uint64 {
	out := make([]uint64, len(r.goldenProfiles))
	for i := range r.goldenProfiles {
		for op, n := range r.goldenProfiles[i].PerOpLane {
			if filter == nil || filter(op) {
				out[i] += n
			}
		}
	}
	return out
}

// RunTrialWithFault executes the workload with the fault plan applied to
// the given launch, using the checkpointed engine: one sim.Trial runs
// the fault launch and each launch after it (Trial.Launch: start
// images, rejoins, the dirty set, block logs and every fallback), and
// the trial stops as soon as its state rejoins golden, at a sub-launch
// image or a launch boundary, as Masked without simulating the rest of
// the program. The watchdog is set to a small multiple of the golden
// cycle count so hangs resolve quickly. Every record carries what the
// fault did (TrialRecord.Fire), and SDC trials additionally carry a
// budget-capped diff of the output region against the final golden
// memory. The plan is only read, so it can be rerun or shared by
// concurrent trials; every launch runs lean (sim.Trial.Launch).
//
// On an infrastructure error the record's Outcome is DUE, but callers
// must treat the error as fatal to the trial, not as a classification:
// an errored trial is neither Masked nor a DUE observation.
func (r *Runner) RunTrialWithFault(plan *sim.FaultPlan, faultLaunch int) (TrialRecord, error) {
	return r.runTrial(plan, faultLaunch, nil)
}

// runTrial is RunTrialWithFault, handing each launch step's result to
// seen unless it is nil.
func (r *Runner) runTrial(plan *sim.FaultPlan, faultLaunch int, seen func(launch int, res sim.Result)) (TrialRecord, error) {
	if faultLaunch < 0 || faultLaunch >= len(r.inst.Launches) {
		return TrialRecord{Outcome: DUE}, fmt.Errorf("kernels: %s has no launch %d", r.Name, faultLaunch)
	}
	t := r.trials.Get().(*sim.Trial)
	defer r.trials.Put(t)
	rec := TrialRecord{Outcome: Masked}
	for i := faultLaunch; i < len(r.inst.Launches); i++ {
		cfg := r.replayConfig(i)
		if i == faultLaunch {
			cfg.Fault = plan
		}
		res, err := t.Launch(cfg, r.ckpts[i], r.boundary(i+1), func() (*sim.BlockLog, error) { return r.logFor(i) })
		if err != nil {
			return TrialRecord{Outcome: DUE}, fmt.Errorf("kernels: %s launch %d: %w", r.Name, i, err)
		}
		r.count(&res, i == faultLaunch)
		if seen != nil {
			seen(i, res)
		}
		if i == faultLaunch {
			rec.Fire = res.Fire
		}
		switch {
		case res.Outcome == sim.OutcomeDUE:
			rec.Outcome, rec.DUEMode = DUE, res.DUEMode
			return rec, nil
		case res.RejoinedGolden || t.Clean():
			// The replay's full state matched a golden image, or memory
			// is bit-identical to the golden boundary: the rest of the
			// program replays golden, and the comparator must pass.
			return rec, nil
		}
	}
	g := t.Memory(r.final)
	if !r.inst.Check(g) {
		rec.Outcome = SDC
		r.captureDiff(g, &rec)
	}
	return rec, nil
}

// replayConfig is the launch configuration of faulted replays: the
// golden launch with its watchdog at a small multiple of the golden
// cycle count.
func (r *Runner) replayConfig(i int) sim.Config {
	l := r.inst.Launches[i]
	return sim.Config{
		Device: r.Dev, Program: l.Prog,
		GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads,
		MaxCycles: r.goldenCycles[i]*10 + 20_000,
	}
}

// boundary returns golden device memory before launch i (the final
// memory past the last launch).
func (r *Runner) boundary(i int) *mem.Snapshot {
	if i < len(r.ckpts) {
		return r.ckpts[i][0].Mem
	}
	return r.final
}

// ReplayStats reports how often faulted replays used the sub-launch
// images: restores counts replays that started from a mid-launch
// golden image, rejoins counts replays cut off early because their
// state rejoined a golden image before the launch ended.
func (r *Runner) ReplayStats() (restores, rejoins uint64) {
	return r.subRestores.Load(), r.subRejoins.Load()
}

// captureDiff fills rec with the word-level diff between g and the
// final golden memory. With a declared Output region the scan walks
// the grid element-wise and emits whole elements; without one it walks
// the entire allocated region word-wise (the count still sizes the
// corruption, but nothing downstream can classify it). The diff is
// allocated once, at the budget's capacity, on the first corrupt word.
func (r *Runner) captureDiff(g *mem.Global, rec *TrialRecord) {
	golden := r.final
	out := r.inst.Output
	if out == nil {
		for addr := uint32(0); int(addr) < golden.AllocatedBytes(); addr += 4 {
			gw, ow := golden.Word(addr), g.Word(addr)
			if gw == ow {
				continue
			}
			rec.CorruptWords++
			if rec.Diff == nil {
				rec.Diff = make([]CorruptWord, 0, DiffBudgetWords)
			}
			if len(rec.Diff) < DiffBudgetWords {
				rec.Diff = append(rec.Diff, CorruptWord{Addr: addr, Golden: gw, Observed: ow})
			} else {
				rec.DiffTruncated = true
			}
		}
		return
	}
	ew := uint32(out.ElemWords())
	for elem := 0; elem < out.Rows*out.Cols; elem++ {
		base := out.Base + uint32(elem)*ew*4
		corrupt := false
		for w := uint32(0); w < ew; w++ {
			if golden.Word(base+w*4) != g.Word(base+w*4) {
				corrupt = true
				rec.CorruptWords++
			}
		}
		if !corrupt {
			continue
		}
		if len(rec.Diff)+int(ew) > DiffBudgetWords {
			rec.DiffTruncated = true
			continue
		}
		if rec.Diff == nil {
			rec.Diff = make([]CorruptWord, 0, DiffBudgetWords)
		}
		for w := uint32(0); w < ew; w++ {
			addr := base + w*4
			rec.Diff = append(rec.Diff, CorruptWord{
				Addr: addr, Golden: golden.Word(addr), Observed: g.Word(addr),
			})
		}
	}
}
