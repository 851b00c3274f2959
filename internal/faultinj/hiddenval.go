package faultinj

import (
	"gpurel/internal/analysis"
	"gpurel/internal/beam"
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
)

// Cross-validation of the static hidden-resource DUE model
// (internal/analysis) against the beam campaign's per-resource strike
// ledger (internal/beam): both estimate P(DUE | strike in a hidden
// management resource) — the quantity the architecture-level injectors
// cannot measure at all, and the reason they underestimate the DUE rate
// by orders of magnitude (§VII-B). The comparison mirrors the SDC-side
// CrossValidation above: one scalar per workload, a documented
// tolerance, and a pinned kernel list the tolerance is validated on.

// HiddenCrossValTolerance is the documented agreement bound between the
// static P(DUE | hidden strike) and the beam-measured hidden DUE
// fraction, in absolute probability. The static model modulates a
// calibrated per-resource prior by code structure; the beam fraction
// carries binomial sampling noise over the campaign's hidden strikes
// (a few hundred at the validated trial counts). Measured deltas across
// the pinned kernels sit well inside +/- 0.15.
const HiddenCrossValTolerance = 0.15

// MeasuredCrossValTolerance is the agreement bound for the measured-
// residency hidden model (MeasuredHidden). With the occupancies read
// from the golden run's residency telemetry instead of guessed from
// code shape, the model error shrinks to the modulation terms and the
// beam side's binomial noise, so the bound tightens from the static
// ±0.15 to ±0.10 over the same pinned kernel list.
const MeasuredCrossValTolerance = 0.10

// HiddenCrossValKernels lists the built-in workloads over which
// HiddenCrossValTolerance is validated (see TestHiddenCrossValAgreement).
// They are chosen for hidden-strike sample size: at the validated trial
// count each draws >= 50 hidden strikes, keeping the binomial noise on
// the beam side of the comparison a small fraction of the tolerance.
var HiddenCrossValKernels = []string{"FMXM", "CCL", "FLUD", "MERGESORT", "QUICKSORT"}

// StaticHidden computes the workload's static hidden-resource DUE
// estimate: per-launch analyses weighted by each launch's active-warp-
// cycles, the exposure the per-warp hidden state (reconvergence stacks,
// scheduler slots) scales with. Instruction weights within a launch
// come from the golden dynamic profile, as in StaticEstimate. The
// runner's analyses are launch-bounded; the hidden model reads only
// the program, CFG and def-use chains, which no bounds change.
func StaticHidden(r *kernels.Runner) *analysis.HiddenEstimate {
	as := r.Analyses()
	profiles := r.GoldenProfiles()
	ests := make([]*analysis.HiddenEstimate, 0, len(as))
	weights := make([]float64, 0, len(as))
	for i, a := range as {
		var w []float64
		lw := 1.0
		if i < len(profiles) {
			w = a.OpWeights(profiles[i].PerOpLane)
			lw = float64(profiles[i].ActiveWarpCycles)
		}
		ests = append(ests, a.HiddenEstimate(w))
		weights = append(weights, lw)
	}
	return analysis.CombineHidden(r.Name, ests, weights)
}

// MeasuredHidden computes the workload's measured-residency hidden DUE
// estimate: the golden run's residency telemetry, aggregated over all
// launches (counters summed, so launches weigh in by their execution
// share), replaces the static proxies via analysis.WithResidency. The
// static estimate remains available as the fallback for consumers
// without telemetry.
func MeasuredHidden(r *kernels.Runner) *analysis.HiddenEstimate {
	agg := sim.Aggregate(r.GoldenProfiles())
	res := agg.Residency(r.Dev)
	return StaticHidden(r).WithResidency(analysis.MeasuredResidency{
		WarpsPerSMCycle:  res.WarpsPerSMCycle,
		SMCyclesPerCycle: res.SMCyclesPerCycle,
		SchedUtil:        res.SchedUtil,
		FetchRate:        res.FetchRate,
		DivDepth:         res.DivDepth,
		LoadDepth:        res.LoadDepth,
	})
}

// HiddenCrossValidation pairs the hidden-DUE views of one workload:
// the static model, the measured-residency model, and the beam ledger.
type HiddenCrossValidation struct {
	Name     string
	Device   string
	Static   *analysis.HiddenEstimate
	Measured *analysis.HiddenEstimate
	Beam     *beam.Result
}

// StaticDUEGivenStrike is the model's P(DUE | hidden strike).
func (c *HiddenCrossValidation) StaticDUEGivenStrike() float64 { return c.Static.DUE }

// BeamDUEGivenStrike is the campaign's measured hidden DUE fraction.
func (c *HiddenCrossValidation) BeamDUEGivenStrike() float64 { return c.Beam.HiddenDUEFraction() }

// MeasuredDUEGivenStrike is the measured-residency model's P(DUE |
// hidden strike), or 0 when the validation ran without telemetry.
func (c *HiddenCrossValidation) MeasuredDUEGivenStrike() float64 {
	if c.Measured == nil {
		return 0
	}
	return c.Measured.DUE
}

// Delta is static minus beam P(DUE | hidden strike); |Delta| within
// HiddenCrossValTolerance counts as agreement.
func (c *HiddenCrossValidation) Delta() float64 {
	return c.StaticDUEGivenStrike() - c.BeamDUEGivenStrike()
}

// MeasuredDelta is measured minus beam P(DUE | hidden strike).
func (c *HiddenCrossValidation) MeasuredDelta() float64 {
	return c.MeasuredDUEGivenStrike() - c.BeamDUEGivenStrike()
}

// Agrees reports whether the two views agree within the tolerance. A
// campaign that sampled no hidden strikes cannot disagree with anything
// and reports false: the comparison is void, not validated.
func (c *HiddenCrossValidation) Agrees() bool {
	if c.Beam.HiddenStrikes() == 0 {
		return false
	}
	d := c.Delta()
	if d < 0 {
		d = -d
	}
	return d <= HiddenCrossValTolerance
}

// MeasuredAgrees reports whether the measured-residency model agrees
// with the beam within the tighter MeasuredCrossValTolerance. Like
// Agrees, a strike-free campaign is void, not validated; so is a
// validation that carries no measured estimate.
func (c *HiddenCrossValidation) MeasuredAgrees() bool {
	if c.Measured == nil || c.Beam.HiddenStrikes() == 0 {
		return false
	}
	d := c.MeasuredDelta()
	if d < 0 {
		d = -d
	}
	return d <= MeasuredCrossValTolerance
}

// CrossValidateHidden runs a beam campaign and both hidden-DUE models
// (static and measured-residency) over one already-built runner and
// pairs the results.
func CrossValidateHidden(cfg beam.Config, r *kernels.Runner) (*HiddenCrossValidation, error) {
	b, err := beam.Run(cfg, r)
	if err != nil {
		return nil, err
	}
	return &HiddenCrossValidation{
		Name: r.Name, Device: r.Dev.Name,
		Static: StaticHidden(r), Measured: MeasuredHidden(r), Beam: b,
	}, nil
}
