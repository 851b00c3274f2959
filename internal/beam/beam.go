// Package beam simulates accelerated neutron-beam experiments in the
// style of the paper's ChipIR / LANSCE campaigns (§III-C). The silicon
// sensitivity model of internal/device is the hidden ground truth: it
// assigns strike cross-sections to every functional unit, storage bit,
// and hidden management resource. A campaign repeatedly executes the
// workload with one sampled strike per trial (importance sampling — at
// natural flux at most one fault occurs per execution, §IV-A), counts
// silent data corruptions and detected unrecoverable errors, and reports
// FIT rates in arbitrary units with Poisson-style 95% confidence
// intervals, exactly the estimator structure of beam counting
// experiments (errors / fluence).
//
// ECC changes the fate of storage strikes only: SECDED corrects single-
// bit upsets and converts multi-bit upsets into DUEs; logic, pipeline,
// and hidden-resource strikes are unaffected, which is why the paper
// sees the DUE rate *rise* with ECC enabled for memory-hungry codes.
package beam

import (
	"fmt"

	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/par"
	"gpurel/internal/patterns"
	"gpurel/internal/sim"
	"gpurel/internal/stats"
)

// Source categorizes strike sites for the campaign breakdown.
type Source uint8

// Strike-site categories.
const (
	SrcFU     Source = iota // functional-unit strike during an operation
	SrcRF                   // register-file storage bit
	SrcShared               // shared-memory storage bit
	SrcGlobal               // device-memory (DRAM) storage bit
	SrcHidden               // scheduler / instruction pipe / mem path / host
	SrcCount
)

// String names the category.
func (s Source) String() string {
	return [...]string{"functional-units", "register-file", "shared-memory", "global-memory", "hidden"}[s]
}

// Config sizes a campaign.
type Config struct {
	ECC     bool
	Trials  int // strike trials (the paper runs >= 72 beam-hours per code)
	Workers int
	Seed    uint64
}

// Result is the outcome of one beam campaign.
type Result struct {
	Name   string
	Device string
	ECC    bool
	Trials int

	// LambdaPerCycle is the total expected strike rate per cycle in
	// arbitrary units (flux folded in); FIT values derive from it.
	LambdaPerCycle float64

	SDC int
	DUE int

	// SDCFIT / DUEFIT are failure rates in arbitrary units (events per
	// unit exposure) with 95% CIs.
	SDCFIT stats.RateEstimate
	DUEFIT stats.RateEstimate

	// BySource counts SDC/DUE outcomes per strike-site category.
	BySource [SrcCount]struct{ Strikes, SDC, DUE int }

	// ByHidden breaks the SrcHidden strikes down by management resource
	// (§VII-B): the per-resource ledger the static hidden-DUE model of
	// internal/analysis cross-validates against.
	ByHidden [device.HiddenCount]struct{ Strikes, SDC, DUE int }

	// Patterns is the campaign's SDC pattern ledger. Strikes resolved
	// without simulation (ECC-intercepted storage strikes, hidden-
	// resource draws) have no output diff; their SDCs count as
	// Unclassified.
	Patterns patterns.Ledger

	// DUEModes is the campaign's typed-DUE ledger. Strikes resolved
	// without simulation (ECC-intercepted storage strikes, hidden-
	// resource DUE draws) carry no typed mechanism; they count as
	// Unattributed.
	DUEModes patterns.DUELedger
}

// HiddenStrikes returns the total hidden-resource strike count.
func (r *Result) HiddenStrikes() int { return r.BySource[SrcHidden].Strikes }

// HiddenDUEFraction returns the measured P(DUE | hidden strike), or 0
// when the campaign sampled no hidden strikes.
func (r *Result) HiddenDUEFraction() float64 {
	if s := r.BySource[SrcHidden]; s.Strikes > 0 {
		return float64(s.DUE) / float64(s.Strikes)
	}
	return 0
}

// exposure captures the strike-rate budget of one launch.
type exposure struct {
	launch int

	opLambda  map[isa.Op]float64
	opTotal   float64
	rfLambda  float64
	shLambda  float64
	glLambda  float64
	hidLambda [device.HiddenCount]float64
	hidTotal  float64
	total     float64

	laneOps      uint64
	perOp        map[isa.Op]uint64
	gridBlocks   int
	blockThreads int
	numRegs      int
	sharedBytes  int
}

// Run executes a beam campaign against one workload.
func Run(cfg Config, r *kernels.Runner) (*Result, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 400
	}
	inst := r.Instance()
	sil := r.Dev.Silicon
	allocBits := float64(inst.Global.AllocatedBytes()) * 8

	profiles := r.GoldenProfiles()
	exposures := make([]exposure, len(profiles))
	var lambdaTotal, cyclesTotal float64
	for i, p := range profiles {
		l := inst.Launches[i]
		ex := exposure{
			launch:       i,
			opLambda:     make(map[isa.Op]float64),
			perOp:        p.PerOpLane,
			laneOps:      p.LaneOps,
			gridBlocks:   l.GridX * l.GridY,
			blockThreads: l.BlockThreads,
			numRegs:      max(l.Prog.NumRegs, 1),
			sharedBytes:  l.Prog.SharedMem,
		}
		// Iterate opcodes in numeric order: summing in map order would
		// make opTotal (and every derived rate) wobble by a ULP per run.
		for op := isa.Op(0); int(op) < isa.OpCount; op++ {
			n, ok := p.PerOpLane[op]
			if !ok {
				continue
			}
			lam := sil.Sigma(op) * float64(n)
			ex.opLambda[op] = lam
			ex.opTotal += lam
		}
		warpsPerBlock := (l.BlockThreads + 31) / 32
		rfBitCycles := float64(p.ActiveWarpCycles) * 32 * float64(ex.numRegs) * 32
		ex.rfLambda = sil.RFBitSigma * rfBitCycles
		shBitCycles := float64(p.ActiveWarpCycles) / float64(warpsPerBlock) * float64(ex.sharedBytes) * 8
		ex.shLambda = sil.SharedBitSigma * shBitCycles
		ex.glLambda = sil.GlobalBitSigma * allocBits * float64(p.Cycles)
		for h := device.HiddenResource(0); h < device.HiddenCount; h++ {
			s := sil.Hidden[h]
			lam := s.SigmaPerWarpCycle*float64(p.ActiveWarpCycles) +
				s.SigmaPerSMCycle*float64(p.SMCycles)
			ex.hidLambda[h] = lam
			ex.hidTotal += lam
		}
		ex.total = ex.opTotal + ex.rfLambda + ex.shLambda + ex.glLambda + ex.hidTotal
		exposures[i] = ex
		lambdaTotal += ex.total
		cyclesTotal += float64(p.Cycles)
	}
	if lambdaTotal <= 0 {
		return nil, fmt.Errorf("beam: %s exposes no strike surface", r.Name)
	}

	res := &Result{
		Name: r.Name, Device: r.Dev.Name, ECC: cfg.ECC, Trials: cfg.Trials,
		LambdaPerCycle: lambdaTotal / cyclesTotal,
	}

	outs := make([]trialOut, cfg.Trials)
	master := stats.NewRNG(0xbea3, cfg.Seed)
	rngs := make([]*stats.RNG, cfg.Trials)
	for i := range rngs {
		rngs[i] = master.Split(uint64(i))
	}

	err := par.ForEach(cfg.Trials, cfg.Workers, func(i int) error {
		out, err := runTrial(cfg, r, sil, exposures, lambdaTotal, allocBits, rngs[i])
		if err != nil {
			return fmt.Errorf("beam: %s trial %d: %w", r.Name, i, err)
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		// An infrastructure error is not a beam observation; abort the
		// campaign instead of biasing any channel.
		return nil, err
	}

	geo := inst.Output
	for _, o := range outs {
		res.BySource[o.src].Strikes++
		if o.src == SrcHidden {
			res.ByHidden[o.hid].Strikes++
		}
		ob := patterns.Observe(o.rec, geo)
		res.Patterns.Count(ob)
		res.DUEModes.Count(ob)
		switch o.rec.Outcome {
		case kernels.SDC:
			res.SDC++
			res.BySource[o.src].SDC++
			if o.src == SrcHidden {
				res.ByHidden[o.hid].SDC++
			}
		case kernels.DUE:
			res.DUE++
			res.BySource[o.src].DUE++
			if o.src == SrcHidden {
				res.ByHidden[o.hid].DUE++
			}
		}
	}
	// FIT in arbitrary units: (strikes per cycle) * P(channel | strike).
	// Exposure is expressed so that Rate = lambdaPerCycle * events/trials.
	exposureAU := float64(cfg.Trials) / res.LambdaPerCycle
	res.SDCFIT = stats.NewRateEstimate(res.SDC, exposureAU)
	res.DUEFIT = stats.NewRateEstimate(res.DUE, exposureAU)
	return res, nil
}

// trialOut is the classified record of one strike trial; hid is
// meaningful only when src == SrcHidden.
type trialOut struct {
	src Source
	hid device.HiddenResource
	rec kernels.TrialRecord
}

// runTrial samples one strike and classifies its outcome. A non-nil
// error is an infrastructure failure, not a classification.
func runTrial(cfg Config, r *kernels.Runner, sil *device.SiliconModel,
	exposures []exposure, lambdaTotal, allocBits float64, rng *stats.RNG) (trialOut, error) {

	// Pick the launch, then the site category within it.
	x := rng.Float64() * lambdaTotal
	var ex *exposure
	for i := range exposures {
		if x < exposures[i].total || i == len(exposures)-1 {
			ex = &exposures[i]
			break
		}
		x -= exposures[i].total
	}

	switch {
	case x < ex.opTotal:
		rec, err := fuStrike(r, sil, ex, rng, cfg.ECC)
		return trialOut{src: SrcFU, rec: rec}, err
	case x < ex.opTotal+ex.rfLambda:
		rec, err := storageStrike(cfg, r, sil, ex, rng, SrcRF, allocBits)
		return trialOut{src: SrcRF, rec: rec}, err
	case x < ex.opTotal+ex.rfLambda+ex.shLambda:
		rec, err := storageStrike(cfg, r, sil, ex, rng, SrcShared, allocBits)
		return trialOut{src: SrcShared, rec: rec}, err
	case x < ex.opTotal+ex.rfLambda+ex.shLambda+ex.glLambda:
		rec, err := storageStrike(cfg, r, sil, ex, rng, SrcGlobal, allocBits)
		return trialOut{src: SrcGlobal, rec: rec}, err
	default:
		h, rec := hiddenStrike(sil, ex, rng)
		return trialOut{src: SrcHidden, hid: h, rec: rec}, nil
	}
}

// fuStrike corrupts the operation executing in the struck functional
// unit: usually its output value, sometimes its effective address
// (memory ops), occasionally a pipeline latch that suppresses the
// instruction.
func fuStrike(r *kernels.Runner, sil *device.SiliconModel, ex *exposure, rng *stats.RNG, ecc bool) (kernels.TrialRecord, error) {
	// Sample the dynamic operation proportional to sigma * count.
	x := rng.Float64() * ex.opTotal
	var op isa.Op
	for o := isa.Op(0); int(o) < isa.OpCount; o++ {
		lam, ok := ex.opLambda[o]
		if !ok {
			continue
		}
		if x < lam {
			op = o
			break
		}
		x -= lam
		op = o
	}
	kind := sim.FaultValueBit
	roll := rng.Float64()
	switch {
	case op.IsMemory() && roll < sil.PEffectAddress:
		kind = sim.FaultAddrBit
	case roll >= 1-sil.PEffectPipeline:
		kind = sim.FaultSkip
	}
	// The memory data path is end-to-end ECC-covered when ECC is on;
	// the address path is not (§V-B).
	if kind == sim.FaultValueBit && op.IsMemory() && ecc && rng.Bool(sil.PLDSTDataECC) {
		return kernels.TrialRecord{Outcome: kernels.Masked}, nil
	}
	opFilter := func(target isa.Op) func(isa.Op) bool {
		return func(o isa.Op) bool { return o == target }
	}(op)
	plan := &sim.FaultPlan{
		Kind:         kind,
		Filter:       opFilter,
		TriggerIndex: uint64(rng.Int64N(int64(ex.perOp[op]))),
		Bit:          rng.IntN(64),
	}
	return r.RunTrialWithFault(plan, ex.launch)
}

// storageStrike flips one bit of the register file, shared memory, or
// global memory. Under SECDED ECC the flip is corrected (masked) unless
// it is a multi-bit upset, which becomes a detected unrecoverable error.
func storageStrike(cfg Config, r *kernels.Runner, sil *device.SiliconModel,
	ex *exposure, rng *stats.RNG, src Source, allocBits float64) (kernels.TrialRecord, error) {
	if cfg.ECC {
		p := sil.MBUProb
		if src == SrcGlobal {
			p = sil.DRAMDetectedProb // DRAM multi-cell upsets and bursts
		}
		if rng.Bool(p) {
			return kernels.TrialRecord{Outcome: kernels.DUE}, nil // detected uncorrectable
		}
		return kernels.TrialRecord{Outcome: kernels.Masked}, nil // corrected SBU
	}
	plan := &sim.FaultPlan{
		TriggerIndex: uint64(rng.Int64N(int64(max(ex.laneOps, 1)))),
		Bit:          rng.IntN(64),
	}
	switch src {
	case SrcRF:
		plan.Kind = sim.FaultRFBit
		plan.Block = rng.IntN(ex.gridBlocks)
		plan.Thread = rng.IntN(ex.blockThreads)
		plan.Reg = rng.IntN(ex.numRegs)
	case SrcShared:
		plan.Kind = sim.FaultSharedBit
		plan.Block = rng.IntN(ex.gridBlocks)
		plan.BitIdx = rng.Uint64() % uint64(max(ex.sharedBytes*8, 1))
	case SrcGlobal:
		plan.Kind = sim.FaultGlobalBit
		plan.BitIdx = rng.Uint64() % uint64(max(int(allocBits), 1))
	}
	return r.RunTrialWithFault(plan, ex.launch)
}

// hiddenStrike resolves a strike on management hardware the SASS-level
// simulator cannot express; the outcome distribution comes from the
// silicon model. These are the events that make architecture-level
// fault simulation underestimate the DUE rate by orders of magnitude
// (§VII-B).
func hiddenStrike(sil *device.SiliconModel, ex *exposure, rng *stats.RNG) (device.HiddenResource, kernels.TrialRecord) {
	x := rng.Float64() * ex.hidTotal
	h := device.HiddenScheduler
	for hr := device.HiddenResource(0); hr < device.HiddenCount; hr++ {
		if x < ex.hidLambda[hr] {
			h = hr
			break
		}
		x -= ex.hidLambda[hr]
		h = hr
	}
	s := sil.Hidden[h]
	roll := rng.Float64()
	switch {
	case roll < s.PDUE:
		return h, kernels.TrialRecord{Outcome: kernels.DUE}
	case roll < s.PDUE+s.PSDC:
		return h, kernels.TrialRecord{Outcome: kernels.SDC}
	default:
		return h, kernels.TrialRecord{Outcome: kernels.Masked}
	}
}
