// Package faultinj implements the two architecture-level fault
// injection frameworks the paper uses (§III-D):
//
//   - Sassifi, modeled on SASSIFI: instruments code compiled by the
//     legacy ("CUDA 7.0-era", asm.O1) backend; injects bit flips into
//     instruction output values per instruction class, into destination
//     register indices (IOA), and into predicate registers; cannot
//     instrument proprietary-library kernels on Kepler.
//   - NVBitFI, modeled on NVBitFI: instruments code compiled by the
//     modern ("CUDA 10.1-era", asm.O2) backend; injects only into the
//     outputs of instructions that write general-purpose registers;
//     supports proprietary libraries on Volta; cannot inject into
//     half-precision instructions.
//
// Both classify every injection as Masked, SDC, or DUE by comparing the
// run against the golden output, and report AVFs (observed errors /
// injected faults) with Wilson 95% intervals, the statistics behind
// Figure 4 and the AVF(INST_i) terms of the prediction model (Eq. 2).
package faultinj

import (
	"fmt"
	"strings"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/par"
	"gpurel/internal/patterns"
	"gpurel/internal/sim"
	"gpurel/internal/stats"
)

// Tool identifies the injector frontend.
type Tool uint8

// The two injector frontends.
const (
	Sassifi Tool = iota
	NVBitFI
)

// String names the tool.
func (t Tool) String() string {
	if t == Sassifi {
		return "SASSIFI"
	}
	return "NVBitFI"
}

// ParseTool resolves a tool by its String name, case-insensitively and
// ignoring surrounding space (SASSIFI or sassifi, NVBitFI or nvbitfi).
func ParseTool(name string) (Tool, error) {
	for _, t := range []Tool{Sassifi, NVBitFI} {
		if strings.EqualFold(strings.TrimSpace(name), t.String()) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown tool %q (want sassifi or nvbitfi)", name)
}

// Instruments reports why the tool cannot instrument code on dev, or nil
// when it can: SASSIFI instruments Kepler only (§III-D). It is the one
// device rule of the injectors.
func (t Tool) Instruments(dev *device.Device) error {
	if t == Sassifi && dev.Arch != device.Kepler {
		return fmt.Errorf("%s does not instrument %s", t, dev.Name)
	}
	return nil
}

// OptLevel returns the compiler pipeline the tool's toolchain implies.
func (t Tool) OptLevel() asm.OptLevel {
	if t == Sassifi {
		return asm.O1
	}
	return asm.O2
}

// Mode is an injection mode.
type Mode uint8

// Injection modes.
const (
	ModeIOV  Mode = iota // instruction output value, single bit flip
	ModeIOA              // instruction output address (register index)
	ModePred             // predicate register flip
	ModeGPR              // stored general-purpose-register bit flip
)

// String names the mode.
func (m Mode) String() string {
	return [...]string{"IOV", "IOA", "PRED", "GPR"}[m]
}

// Tally accumulates trial outcomes plus their SDC pattern ledger — the
// one shape the whole-campaign, per-class, per-mode, and per-band
// aggregations share (each used to repeat the counters and the
// proportion finalization). Count folds one observed trial in; Finalize
// computes the Wilson proportions once counting ends.
type Tally struct {
	Injected int
	SDC      int
	DUE      int
	Masked   int

	// SDCAVF / DUEAVF are Wilson 95% proportions over Injected.
	SDCAVF stats.Proportion
	DUEAVF stats.Proportion

	// Patterns is the SDC pattern ledger of the tallied trials.
	Patterns patterns.Ledger

	// DUEModes is the typed-DUE ledger of the tallied trials.
	DUEModes patterns.DUELedger
}

// Count folds one observed trial into the tally.
func (t *Tally) Count(ob patterns.Observation) {
	t.Injected++
	switch ob.Outcome {
	case kernels.SDC:
		t.SDC++
	case kernels.DUE:
		t.DUE++
	default:
		t.Masked++
	}
	t.Patterns.Count(ob)
	t.DUEModes.Count(ob)
}

// Finalize computes the Wilson proportions from the counters.
func (t *Tally) Finalize() {
	t.SDCAVF = stats.NewProportion(t.SDC, t.Injected)
	t.DUEAVF = stats.NewProportion(t.DUE, t.Injected)
}

// ModeAVF is the per-mode outcome of a campaign; the GPR mode's SDC AVF
// is the AVF(MEM) term of Equation 3.
type ModeAVF struct {
	Tally
}

// Config sizes a campaign.
type Config struct {
	Tool Tool
	// FaultsPerClass is the SASSIFI-style sample size per instruction
	// class (the paper uses 1,000; campaigns here default to smaller,
	// documented sizes so the full study fits a CPU budget).
	FaultsPerClass int
	// TotalFaults is the NVBitFI-style total sample size (the paper
	// uses >= 4,000 per code).
	TotalFaults int
	// Workers bounds campaign parallelism (0: GOMAXPROCS).
	Workers int
	// Seed makes the campaign reproducible.
	Seed uint64
}

// BandAVF is the per-bit-band outcome of the campaign's value-bit
// injections. Each fired trial is attributed to the width-relative band
// (analysis.BandOf) of the bit the simulator actually flipped — the
// dynamic counterpart of the static estimator's Band profile. Trials
// whose trigger was never reached carry no bit and are excluded.
type BandAVF struct {
	Tally
}

// ClassAVF is the per-instruction-class outcome of a campaign: the
// AVF(INST_i) terms of Equation 2.
type ClassAVF struct {
	Class isa.Class
	Tally
}

// Result is a whole-campaign outcome for one workload. Its embedded
// Tally holds the dynamically weighted whole-application counters and
// AVFs plotted in Figure 4, plus the campaign's SDC pattern ledger.
type Result struct {
	Name   string
	Tool   Tool
	Device string
	Tally

	PerClass map[isa.Class]*ClassAVF
	PerMode  map[Mode]int
	ByMode   map[Mode]*ModeAVF
	ByBand   map[analysis.BitBand]*BandAVF
}

// injectableClasses lists the classes SASSIFI campaigns stratify over.
var injectableClasses = []isa.Class{
	isa.ClassADD, isa.ClassMUL, isa.ClassFMA, isa.ClassINT,
	isa.ClassMMA, isa.ClassLDST,
}

// classFilter returns the lane-op filter for one class under a tool,
// honoring NVBitFI's inability to instrument FP16 instructions and its
// restriction to GPR-writing instructions.
func classFilter(tool Tool, class isa.Class) func(isa.Op) bool {
	return func(op isa.Op) bool {
		if op.ClassOf() != class {
			return false
		}
		return opInjectable(tool, op)
	}
}

func opInjectable(tool Tool, op isa.Op) bool {
	if tool == NVBitFI {
		if !op.WritesGPR() {
			return false
		}
		switch op {
		case isa.OpHADD, isa.OpHMUL, isa.OpHFMA, isa.OpHMMA:
			return false // NVBitFI: no half-precision injection (§VI)
		}
	}
	return true
}

// RunWithRunner executes an injection campaign against an already-built
// runner, reusing its cached instance, golden profiles, and golden
// checkpoint sequences. The runner must have been built with the compiler
// pipeline the tool's toolchain implies (Tool.OptLevel).
func RunWithRunner(cfg Config, runner *kernels.Runner) (*Result, error) {
	if err := cfg.Tool.Instruments(runner.Dev); err != nil {
		return nil, fmt.Errorf("faultinj: %w", err)
	}
	if runner.Opt != cfg.Tool.OptLevel() {
		return nil, fmt.Errorf("faultinj: %s runner built at %s, %s injects at %s",
			runner.Name, runner.Opt, cfg.Tool, cfg.Tool.OptLevel())
	}
	return run(cfg, runner)
}

// run is RunWithRunner without the tool/pipeline pairing check: the
// optimization matrix holds the injector fixed (NVBitFI site semantics)
// while the codegen varies, so the AVF movement is attributable to the
// code alone.
func run(cfg Config, runner *kernels.Runner) (*Result, error) {
	dev := runner.Dev
	name := runner.Name
	rng := stats.NewRNG(0x1437, cfg.Seed)

	plans := buildPlans(cfg, runner, rng)
	if len(plans) == 0 {
		return nil, fmt.Errorf("faultinj: %s has no injectable instructions under %s", name, cfg.Tool)
	}

	res := &Result{
		Name: name, Tool: cfg.Tool, Device: dev.Name,
		PerClass: make(map[isa.Class]*ClassAVF),
		PerMode:  make(map[Mode]int),
		ByMode:   make(map[Mode]*ModeAVF),
		ByBand:   make(map[analysis.BitBand]*BandAVF),
	}
	records, err := runPlans(cfg, runner, plans)
	if err != nil {
		return nil, err
	}
	geo := runner.Instance().Output
	for i, p := range plans {
		// Classify once; every tally the trial lands in shares the
		// observation.
		ob := patterns.Observe(records[i], geo)
		res.PerMode[p.mode]++
		ca := res.PerClass[p.class]
		if ca == nil {
			ca = &ClassAVF{Class: p.class}
			res.PerClass[p.class] = ca
		}
		ma := res.ByMode[p.mode]
		if ma == nil {
			ma = &ModeAVF{}
			res.ByMode[p.mode] = ma
		}
		res.Count(ob)
		ca.Count(ob)
		ma.Count(ob)
		if fire := records[i].Fire; p.fault.Kind == sim.FaultValueBit && fire.Width > 0 {
			band := analysis.BandOf(fire.Bit, fire.Width)
			ba := res.ByBand[band]
			if ba == nil {
				ba = &BandAVF{}
				res.ByBand[band] = ba
			}
			ba.Count(ob)
		}
	}
	res.Finalize()
	for _, ca := range res.PerClass {
		ca.Finalize()
	}
	for _, ma := range res.ByMode {
		ma.Finalize()
	}
	for _, ba := range res.ByBand {
		ba.Finalize()
	}
	return res, nil
}

// plan is one scheduled injection.
type plan struct {
	fault  *sim.FaultPlan
	launch int
	mode   Mode
	class  isa.Class
}

// population is a dynamically weighted site population: the lane-ops
// each launch executes that a site filter admits, and their total.
type population struct {
	perLaunch []uint64
	total     uint64
}

func newPopulation(perLaunch []uint64) population {
	p := population{perLaunch: perLaunch}
	for _, c := range perLaunch {
		p.total += c
	}
	return p
}

// draw picks (launch, index-within-launch) uniformly over the population
// with one Int64N. The population must be non-empty.
func (p population) draw(rng *stats.RNG) (int, uint64) {
	x := uint64(rng.Int64N(int64(p.total)))
	for l, c := range p.perLaunch {
		if x < c {
			return l, x
		}
		x -= c
	}
	panic("faultinj: draw beyond the population total")
}

// buildPlans samples the campaign's fault plans from the golden dynamic
// instruction streams.
func buildPlans(cfg Config, r *kernels.Runner, rng *stats.RNG) []plan {
	var plans []plan
	switch cfg.Tool {
	case Sassifi:
		n := cfg.FaultsPerClass
		if n <= 0 {
			n = 250
		}
		// Stratified IOV sampling per instruction class.
		for _, class := range injectableClasses {
			filter := classFilter(Sassifi, class)
			pop := newPopulation(r.LaunchLaneOps(filter))
			if pop.total == 0 {
				continue
			}
			for i := 0; i < n; i++ {
				launch, idx := pop.draw(rng)
				plans = append(plans, plan{
					fault: &sim.FaultPlan{
						Kind: sim.FaultValueBit, Filter: filter,
						TriggerIndex: idx, Bit: rng.IntN(64),
					},
					launch: launch, mode: ModeIOV, class: class,
				})
			}
		}
		// IOA: destination-register corruption over all GPR writers.
		gprFilter := func(op isa.Op) bool { return op.WritesGPR() }
		plans = append(plans, samplePlans(r, rng, n, gprFilter, sim.FaultRegIndex, ModeIOA)...)
		// Predicate-register flips on compare instructions.
		setpFilter := func(op isa.Op) bool {
			switch op {
			case isa.OpISETP, isa.OpFSETP, isa.OpDSETP, isa.OpHSETP:
				return true
			}
			return false
		}
		plans = append(plans, samplePlans(r, rng, n, setpFilter, sim.FaultPredBit, ModePred)...)
		// Stored-register bit flips (the AVF(MEM) term of Eq. 3).
		plans = append(plans, gprPlans(r, rng, n)...)

	case NVBitFI:
		n := cfg.TotalFaults
		if n <= 0 {
			n = 1000
		}
		filter := func(op isa.Op) bool { return opInjectable(NVBitFI, op) }
		plans = samplePlans(r, rng, n, filter, sim.FaultValueBit, ModeIOV)
	}
	return plans
}

// samplePlans draws about n dynamically weighted injection sites
// matching the filter. The population is split by instruction class so
// each plan knows its class ahead of the run: every class with a
// nonzero population receives its rounded proportional share of n (at
// least one), drawn from that class's own population.
func samplePlans(r *kernels.Runner, rng *stats.RNG, n int, filter func(isa.Op) bool, kind sim.FaultKind, mode Mode) []plan {
	type stratum struct {
		class  isa.Class
		filter func(isa.Op) bool
		pop    population
	}
	// Deterministic class order: the RNG consumption sequence follows it.
	var strata []stratum
	var total uint64
	for class := isa.Class(0); class < isa.ClassCount; class++ {
		cf := func(op isa.Op) bool { return filter(op) && op.ClassOf() == class }
		if pop := newPopulation(r.LaunchLaneOps(cf)); pop.total > 0 {
			strata = append(strata, stratum{class, cf, pop})
			total += pop.total
		}
	}
	var plans []plan
	for _, s := range strata {
		share := int(float64(n)*float64(s.pop.total)/float64(total) + 0.5)
		if share == 0 {
			share = 1
		}
		for i := 0; i < share; i++ {
			launch, idx := s.pop.draw(rng)
			plans = append(plans, plan{
				fault: &sim.FaultPlan{
					Kind: kind, Filter: s.filter,
					TriggerIndex: idx, Bit: rng.IntN(64),
				},
				launch: launch, mode: mode, class: s.class,
			})
		}
	}
	return plans
}

// gprPlans samples register-file storage flips: a random bit of a random
// allocated register of a random resident thread, at a random point of a
// launch chosen proportionally to its dynamic length.
func gprPlans(r *kernels.Runner, rng *stats.RNG, n int) []plan {
	inst := r.Instance()
	pop := newPopulation(r.LaunchLaneOps(nil))
	if pop.total == 0 {
		return nil
	}
	var plans []plan
	for i := 0; i < n; i++ {
		launch, idx := pop.draw(rng)
		l := inst.Launches[launch]
		regs := l.Prog.NumRegs
		if regs < 1 {
			regs = 1
		}
		plans = append(plans, plan{
			fault: &sim.FaultPlan{
				Kind:         sim.FaultRFBit,
				TriggerIndex: idx,
				Block:        rng.IntN(l.GridX * l.GridY),
				Thread:       rng.IntN(l.BlockThreads),
				Reg:          rng.IntN(regs),
				Bit:          rng.IntN(32),
			},
			launch: launch, mode: ModeGPR, class: isa.ClassOTHERS,
		})
	}
	return plans
}

// runPlans executes the plans with a bounded worker pool. An
// infrastructure error (build or simulator failure, as opposed to a
// simulated crash, which classifies as DUE) aborts the campaign: it must
// surface to the caller rather than be counted as any outcome.
func runPlans(cfg Config, r *kernels.Runner, plans []plan) ([]kernels.TrialRecord, error) {
	records := make([]kernels.TrialRecord, len(plans))
	err := par.ForEach(len(plans), cfg.Workers, func(i int) error {
		rec, err := r.RunTrialWithFault(plans[i].fault, plans[i].launch)
		if err != nil {
			return fmt.Errorf("faultinj: %s plan %d (%s): %w", r.Name, i, plans[i].mode, err)
		}
		records[i] = rec
		return nil
	})
	if err != nil {
		return nil, err
	}
	return records, nil
}
