package faultinj

import (
	"fmt"

	"gpurel/internal/analysis"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/patterns"
)

// DUE-mode cross-validation: the static analyzer proves, per site and
// bit, which DUE mechanism a flip can reach (analysis.DUEModeVec); the
// injection campaign observes which mechanism each DUE trial actually
// hit (patterns.DUELedger, fed by the simulator's typed sim.DUEMode).
// Both sides reduce to a distribution over the same four modes —
// hang / illegal-address / sync-error / unattributed — and this file
// pairs them.

// DUEModeTolerance is the documented agreement bound between the
// static DUE-mode distribution and the injected one, as the largest
// absolute per-mode share difference (L-infinity over the four modes).
// The static router proves mechanisms from dataflow shape alone: it
// cannot see which loop iteration a flip lands in, how far an escaped
// address actually lands out of bounds, or the watchdog racing the
// illegal access, and campaign multinomial noise adds several points at
// a few hundred DUEs per campaign. Measured L-inf deltas across
// CrossValKernels on both devices at 400-fault NVBitFI campaigns sit
// inside 0.16 (see TestDUEModeCrossVal); the bound leaves headroom for
// small-sample campaigns.
const DUEModeTolerance = 0.20

// DUEModeMinDUEs is the smallest campaign DUE count the mode
// distribution is considered measurable at: below it a single trial
// moves a share by more than the tolerance, so the comparison is
// vacuous and Agrees reports true without testing it.
const DUEModeMinDUEs = 12

// StaticDUEModes computes the injection-free static DUE-mode
// distribution over the site population the tool would inject into,
// weighted by the golden dynamic profile — the mode-split companion of
// StaticEstimate, combined across launches by each launch's injectable
// site weight.
func StaticDUEModes(r *kernels.Runner, tool Tool) (*analysis.DUEModeEstimate, error) {
	filter := func(op isa.Op) bool { return opInjectable(tool, op) }
	inst := r.Instance()
	profiles := r.GoldenProfiles()
	if len(profiles) != len(inst.Launches) {
		return nil, fmt.Errorf("faultinj: %s: %d golden profiles for %d launches",
			r.Name, len(profiles), len(inst.Launches))
	}
	combined := &analysis.DUEModeEstimate{Name: r.Name}
	var mass [analysis.ModeCount]float64
	for i, a := range r.Analyses() {
		e := a.DUEModeEstimate(a.OpWeights(profiles[i].PerOpLane), filter)
		if e.Weight == 0 {
			continue
		}
		combined.Sites += e.Sites
		combined.Weight += e.Weight
		for m := range mass {
			mass[m] += e.Weight * e.Mass(analysis.DUEModeK(m))
		}
	}
	if combined.Weight == 0 {
		return nil, fmt.Errorf("faultinj: %s has no injectable lane-ops under %s", r.Name, tool)
	}
	for m := range mass {
		mass[m] /= combined.Weight
	}
	combined.Hang, combined.IllegalAddress = mass[analysis.ModeHang], mass[analysis.ModeIllegalAddress]
	combined.SyncError, combined.Unattributed = mass[analysis.ModeSyncError], mass[analysis.ModeUnattributed]
	combined.DUEMass = combined.Hang + combined.IllegalAddress +
		combined.SyncError + combined.Unattributed
	return combined, nil
}

// staticDUEMix reduces a static mode estimate to the share distribution
// the dynamic ledger mixes to.
func staticDUEMix(e *analysis.DUEModeEstimate) patterns.DUEMix {
	return patterns.DUEMix{
		Hang:           e.Share(analysis.ModeHang),
		IllegalAddress: e.Share(analysis.ModeIllegalAddress),
		SyncError:      e.Share(analysis.ModeSyncError),
		Unattributed:   e.Share(analysis.ModeUnattributed),
	}
}

// DUEModeCrossVal pairs the static and injected DUE-mode views of one
// workload.
type DUEModeCrossVal struct {
	Name   string
	Tool   Tool
	Device string

	// Static is the analyzer's mode estimate; StaticMix its share
	// distribution.
	Static    *analysis.DUEModeEstimate
	StaticMix patterns.DUEMix

	// DynamicMix is the campaign ledger's distribution over DynamicDUEs
	// typed DUE trials.
	DynamicMix  patterns.DUEMix
	DynamicDUEs int
}

// Delta is the L-infinity distance between the two distributions: the
// largest absolute per-mode share difference.
func (c *DUEModeCrossVal) Delta() float64 {
	d := absf(c.StaticMix.Hang - c.DynamicMix.Hang)
	if v := absf(c.StaticMix.IllegalAddress - c.DynamicMix.IllegalAddress); v > d {
		d = v
	}
	if v := absf(c.StaticMix.SyncError - c.DynamicMix.SyncError); v > d {
		d = v
	}
	if v := absf(c.StaticMix.Unattributed - c.DynamicMix.Unattributed); v > d {
		d = v
	}
	return d
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Measurable reports whether the campaign produced enough typed DUEs
// for the distribution comparison to mean anything.
func (c *DUEModeCrossVal) Measurable() bool { return c.DynamicDUEs >= DUEModeMinDUEs }

// Agrees reports whether the two distributions agree within
// DUEModeTolerance; an unmeasurable campaign agrees vacuously.
func (c *DUEModeCrossVal) Agrees() bool {
	return !c.Measurable() || c.Delta() <= DUEModeTolerance
}

// PairDUEModes pairs a campaign the caller ran on runner with the
// static DUE-mode estimate over the same runner's site population.
func PairDUEModes(runner *kernels.Runner, dyn *Result) (*DUEModeCrossVal, error) {
	st, err := StaticDUEModes(runner, dyn.Tool)
	if err != nil {
		return nil, err
	}
	return &DUEModeCrossVal{
		Name: runner.Name, Tool: dyn.Tool, Device: runner.Dev.Name,
		Static: st, StaticMix: staticDUEMix(st),
		DynamicMix: dyn.DUEModes.Mix(), DynamicDUEs: dyn.DUEModes.DUEs(),
	}, nil
}
