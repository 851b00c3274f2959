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
	"sync/atomic"

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

// WordCount returns the region size in 32-bit words.
func (o *OutputRegion) WordCount() int { return o.Rows * o.Cols * o.ElemWords() }

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
// comparator has already failed, so the Masked fast path (snapshot
// equality at a launch boundary, sub-launch rejoin) pays nothing.
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
}

// Runner executes a workload repeatedly: once golden (capturing per-launch
// profiles, timing, and a memory snapshot at every launch boundary), then
// any number of times with fault plans.
//
// The golden run checkpoints device memory before each launch, so a
// faulted replay restores the pre-launch snapshot instead of re-simulating
// the launches before the fault, runs only the fault launch, and — when
// its post-launch memory is bit-identical to the golden snapshot —
// classifies the fault as architecturally masked without simulating the
// remaining launches or the output comparator. Device memory is the only
// state that crosses a launch boundary (registers, shared memory, and the
// divergence stacks die with the grid), so boundary equality is exact,
// not heuristic: campaign outcomes are bit-identical to full
// re-simulation for the same seed.
type Runner struct {
	Name  string
	Build Builder
	Dev   *device.Device
	Opt   asm.OptLevel

	inst  *Instance       // cached build: programs, geometry, comparator
	snaps []*mem.Snapshot // snaps[i] = memory before launch i; snaps[n] = final
	// pool recycles the working memories of faulted replays, sized at
	// the golden run's allocation high-water mark rather than the
	// instance's capacity: builders allocate host-side, and every kernel
	// access is bounds-checked against the high-water mark, so a replay
	// never touches a word above it.
	pool           *mem.Pool
	goldenProfiles []sim.Profile
	goldenCycles   []int64

	// images[i] holds the sub-launch golden images of launch i (nil when
	// the memory budget made recording not worthwhile). A faulted replay
	// restores the nearest image preceding its trigger and, once the
	// fault fires, cuts off at the first golden image its state rejoins.
	images [][]*sim.LaunchImage

	// Replay accounting (read via ReplayStats; atomic because campaigns
	// call RunTrialWithFault from many goroutines).
	subRestores atomic.Uint64 // replays started from a sub-launch image
	subRejoins  atomic.Uint64 // replays cut off at a sub-launch rejoin
}

// ImageBudgetBytes caps the approximate memory spent on sub-launch
// images per Runner; the per-launch image count is scaled down to fit.
// The serve-layer runner cache reuses it as the unit its own budget is
// expressed in: one budget's worth of cache holds roughly one
// image-saturated runner.
const ImageBudgetBytes = 64 << 20

// NewRunner builds the workload once, performs the golden run, and
// records the launch-boundary snapshots that make faulted replays cheap.
func NewRunner(name string, build Builder, dev *device.Device, opt asm.OptLevel) (*Runner, error) {
	r := &Runner{Name: name, Build: build, Dev: dev, Opt: opt}
	inst, err := build(dev, opt)
	if err != nil {
		return nil, fmt.Errorf("kernels: building %s: %w", name, err)
	}
	r.inst = inst
	// Sub-launch images cost roughly one global snapshot plus resident
	// block state apiece; divide the budget across launches and skip
	// recording where fewer than two images would fit.
	maxImgs := ImageBudgetBytes / len(inst.Launches) /
		(inst.Global.AllocatedBytes() + 64*1024)
	if maxImgs > sim.DefaultMaxImages {
		maxImgs = sim.DefaultMaxImages
	}
	for i, l := range inst.Launches {
		r.snaps = append(r.snaps, inst.Global.Snapshot())
		var rec *sim.ImageRecorder
		if maxImgs >= 2 {
			rec = sim.NewImageRecorder(sim.DefaultImageInterval, maxImgs)
		}
		res, err := sim.Run(sim.Config{
			Device: dev, Program: l.Prog,
			GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads,
			// The golden run is where residency telemetry comes from;
			// faulted replays skip the sampling (resumeWithFault).
			SampleTimeline: true,
			Record:         rec,
		}, inst.Global)
		if err != nil {
			return nil, fmt.Errorf("kernels: golden run of %s launch %d: %w", name, i, err)
		}
		if res.Outcome != sim.OutcomeOK {
			return nil, fmt.Errorf("kernels: golden run of %s launch %d crashed: %s",
				name, i, res.DUEReason)
		}
		r.goldenProfiles = append(r.goldenProfiles, res.Profile)
		r.goldenCycles = append(r.goldenCycles, res.Profile.Cycles)
		if rec != nil {
			r.images = append(r.images, rec.Images)
		} else {
			r.images = append(r.images, nil)
		}
	}
	r.snaps = append(r.snaps, inst.Global.Snapshot())
	hwm := 0
	for _, s := range r.snaps {
		hwm = max(hwm, s.AllocatedBytes())
	}
	r.pool = mem.NewPool(hwm)
	if !inst.Check(inst.Global) {
		return nil, fmt.Errorf("kernels: golden run of %s fails its own check", name)
	}
	return r, nil
}

// MemoryFootprint approximates the bytes the runner retains for the
// life of the cache entry: the instance's device memory, the launch-
// boundary snapshots, and the sub-launch golden images. The replay
// scratch pool is excluded — it grows with concurrent replays, not with
// cache residency. Cache layers (internal/serve) charge this against
// their byte budget when deciding evictions.
func (r *Runner) MemoryFootprint() int {
	total := r.inst.Global.CapacityBytes()
	for _, s := range r.snaps {
		total += s.SizeBytes()
	}
	for _, imgs := range r.images {
		for _, img := range imgs {
			total += img.FootprintBytes()
		}
	}
	return total
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
// the given launch, using the checkpointed engine: launches before the
// fault are skipped by restoring the pre-launch snapshot, and a fault
// launch whose memory matches the golden post-launch snapshot is masked
// without simulating the rest of the program. The watchdog is set to a
// small multiple of the golden cycle count so hangs resolve quickly.
// SDC trials additionally carry a budget-capped diff of the output
// region against the final golden snapshot (TrialRecord).
//
// On an infrastructure error the record's Outcome is DUE, but callers
// must treat the error as fatal to the trial, not as a classification:
// an errored trial is neither Masked nor a DUE observation.
func (r *Runner) RunTrialWithFault(plan *sim.FaultPlan, faultLaunch int) (TrialRecord, error) {
	if faultLaunch < 0 || faultLaunch >= len(r.inst.Launches) {
		return TrialRecord{Outcome: DUE}, fmt.Errorf("kernels: %s has no launch %d", r.Name, faultLaunch)
	}
	g := r.pool.Get()
	defer r.pool.Put(g)
	// Start the fault launch from the latest sub-launch image that
	// provably precedes the plan's trigger; fall back to the launch
	// boundary when none does (or none were recorded). sim.RunFrom
	// restores the image's memory itself, so only the boundary path
	// restores here.
	img := sim.PickImage(r.images[faultLaunch], plan)
	if img != nil {
		r.subRestores.Add(1)
	} else {
		g.Restore(r.snaps[faultLaunch])
	}

	rec, err := r.resumeWithFault(g, plan, faultLaunch, img)
	if err != nil {
		return TrialRecord{Outcome: DUE}, err
	}
	return rec, nil
}

// ReplayStats reports how often faulted replays used the sub-launch
// machinery: restores counts replays that started from a mid-launch
// golden image, rejoins counts replays cut off early because their
// state rejoined a golden image before the launch ended.
func (r *Runner) ReplayStats() (restores, rejoins uint64) {
	return r.subRestores.Load(), r.subRejoins.Load()
}

// resumeWithFault runs launches faultLaunch.. on the working memory g
// (holding the pre-fault-launch state, or rewound to img by sim.RunFrom
// when img is set), injecting the plan into the first of them and
// cutting off as soon as the state rejoins golden.
func (r *Runner) resumeWithFault(g *mem.Global, plan *sim.FaultPlan, faultLaunch int, img *sim.LaunchImage) (TrialRecord, error) {
	launches := r.inst.Launches
	for i := faultLaunch; i < len(launches); i++ {
		l := launches[i]
		cfg := sim.Config{
			Device: r.Dev, Program: l.Prog,
			GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads,
			MaxCycles: r.goldenCycles[i]*10 + 20_000,
			// Replays are classified by outcome alone; skip the
			// profile-only accounting on the issue path.
			LeanProfile: true,
		}
		var res *sim.Result
		var err error
		if i == faultLaunch {
			cfg.Fault = plan
			cfg.Golden = r.images[i]
			if img != nil {
				res, err = sim.RunFrom(cfg, g, img)
			} else {
				res, err = sim.Run(cfg, g)
			}
		} else {
			res, err = sim.Run(cfg, g)
		}
		if err != nil {
			return TrialRecord{Outcome: DUE}, fmt.Errorf("kernels: %s launch %d: %w", r.Name, i, err)
		}
		if res.Outcome == sim.OutcomeDUE {
			return TrialRecord{Outcome: DUE, DUEMode: res.DUEMode}, nil
		}
		// Sub-launch rejoin cutoff: the replay's full state matched a
		// golden mid-launch image after the fault fired, so the rest of
		// the launch — and the remaining launches — replay golden.
		if res.RejoinedGolden {
			r.subRejoins.Add(1)
			return TrialRecord{Outcome: Masked}, nil
		}
		// Early masked-fault cutoff: if memory at this launch boundary is
		// bit-identical to golden, the remaining launches replay the
		// golden execution exactly and the comparator must pass.
		if g.EqualSnapshot(r.snaps[i+1]) {
			return TrialRecord{Outcome: Masked}, nil
		}
	}
	if !r.inst.Check(g) {
		rec := TrialRecord{Outcome: SDC}
		r.captureDiff(g, &rec)
		return rec, nil
	}
	return TrialRecord{Outcome: Masked}, nil
}

// captureDiff fills rec with the word-level diff between g and the
// final golden snapshot. With a declared Output region the scan walks
// the grid element-wise and emits whole elements; without one it walks
// the entire allocated region word-wise (the count still sizes the
// corruption, but nothing downstream can classify it). The diff is
// allocated once, at the budget's capacity, on the first corrupt word.
func (r *Runner) captureDiff(g *mem.Global, rec *TrialRecord) {
	golden := r.snaps[len(r.inst.Launches)]
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
