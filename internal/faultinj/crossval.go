package faultinj

import (
	"fmt"
	"sort"

	"gpurel/internal/analysis"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
)

// Cross-validation of the static ACE-based AVF estimator
// (internal/analysis) against a dynamic injection campaign: both views
// of the same question — what fraction of faults in instruction
// destinations reaches architectural output — over the same injectable
// site population, dynamically weighted by the same golden profile.

// CrossValTolerance is the documented agreement bound between the
// static unmasked estimate and the dynamic unmasked AVF, in absolute
// AVF terms. The static model sees register dataflow but neither values
// nor memory, so it cannot reproduce value-dependent masking (a flipped
// low-order mantissa bit that rounds away, a comparison that does not
// cross its threshold); campaign sampling noise adds a few points on
// top. Measured deltas across the built-in Kepler kernels at 400-fault
// NVBitFI campaigns sit inside +/- 0.27 (see TestCrossValidateAgreement);
// the bound leaves a little headroom for small-sample campaigns.
const CrossValTolerance = 0.30

// CrossValKernels lists the built-in workloads over which
// CrossValTolerance is validated. The remaining suite entries exceed
// the bound for a structural reason, not a tuning one: the NN-inference
// kernels (FGEMM, FYOLOV2, FYOLOV3) and FLUD mask most injected faults
// through operand values — ReLU clamps, saturating accumulations,
// threshold compares — which a value-blind dataflow model cannot
// observe, so their dynamic unmasked AVF sits far below any static
// ACE estimate.
var CrossValKernels = []string{
	"FMXM", "NW", "BFS", "CCL", "FHOTSPOT",
	"FGAUSSIAN", "FLAVA", "MERGESORT", "QUICKSORT",
}

// UnmaskedAVF returns the campaign's overall propagation probability:
// the fraction of injected faults that were not masked.
func (r *Result) UnmaskedAVF() float64 {
	if r.Injected == 0 {
		return 0
	}
	return float64(r.SDC+r.DUE) / float64(r.Injected)
}

// StaticEstimate computes the injection-free static AVF over the site
// population the tool would inject into, weighting each static site by
// the golden dynamic profile (lane-ops of its opcode spread over the
// opcode's static instances). The estimator is the bit-resolved one:
// each launch is analyzed with its own launch geometry as range-seeding
// bounds, and the per-bit-position and per-band profiles are combined
// across launches alongside the whole-program aggregates. Multi-launch
// workloads combine per-launch estimates weighted by each launch's
// injectable lane-ops.
func StaticEstimate(r *kernels.Runner, tool Tool) (*analysis.Estimate, error) {
	filter := func(op isa.Op) bool { return opInjectable(tool, op) }
	inst := r.Instance()
	profiles := r.GoldenProfiles()
	if len(profiles) != len(inst.Launches) {
		return nil, fmt.Errorf("faultinj: %s: %d golden profiles for %d launches",
			r.Name, len(profiles), len(inst.Launches))
	}

	combined := &analysis.Estimate{Name: r.Name, PerClass: make(map[isa.Class]*analysis.ClassEstimate)}
	var tw, sdcW, dueW, deadW float64
	for i, a := range r.Analyses() {
		e := a.Estimate(a.OpWeights(profiles[i].PerOpLane), filter)
		// Sum weights in sorted class order: float accumulation over a
		// map range is iteration-order dependent at the ULP level, which
		// is enough to drift the byte-stable study artifacts.
		classes := make([]isa.Class, 0, len(e.PerClass))
		for class := range e.PerClass {
			classes = append(classes, class)
		}
		sort.Slice(classes, func(a, b int) bool { return classes[a] < classes[b] })
		var lw float64
		for _, class := range classes {
			lw += e.PerClass[class].Weight
		}
		if lw == 0 {
			continue
		}
		combined.Sites += e.Sites
		tw += lw
		sdcW += lw * e.SDC
		dueW += lw * e.DUE
		deadW += lw * e.DeadFraction
		for b := 0; b < 64; b++ {
			combined.BitSDC[b] += e.BitWeight[b] * e.BitSDC[b]
			combined.BitDUE[b] += e.BitWeight[b] * e.BitDUE[b]
			combined.BitWeight[b] += e.BitWeight[b]
		}
		for k := range combined.Band {
			combined.Band[k].SDC += e.Band[k].Weight * e.Band[k].SDC
			combined.Band[k].DUE += e.Band[k].Weight * e.Band[k].DUE
			combined.Band[k].Weight += e.Band[k].Weight
		}
		for class, ce := range e.PerClass {
			cc := combined.PerClass[class]
			if cc == nil {
				cc = &analysis.ClassEstimate{Class: class}
				combined.PerClass[class] = cc
			}
			cc.Sites += ce.Sites
			cc.Weight += ce.Weight
			cc.SDC += ce.Weight * ce.SDC
			cc.DUE += ce.Weight * ce.DUE
		}
	}
	if tw == 0 {
		return nil, fmt.Errorf("faultinj: %s has no injectable lane-ops under %s", r.Name, tool)
	}
	combined.SDC = sdcW / tw
	combined.DUE = dueW / tw
	combined.DeadFraction = deadW / tw
	for b := 0; b < 64; b++ {
		if combined.BitWeight[b] > 0 {
			combined.BitSDC[b] /= combined.BitWeight[b]
			combined.BitDUE[b] /= combined.BitWeight[b]
		}
	}
	for k := range combined.Band {
		if combined.Band[k].Weight > 0 {
			combined.Band[k].SDC /= combined.Band[k].Weight
			combined.Band[k].DUE /= combined.Band[k].Weight
		}
	}
	for _, cc := range combined.PerClass {
		if cc.Weight > 0 {
			cc.SDC /= cc.Weight
			cc.DUE /= cc.Weight
		}
	}
	return combined, nil
}

// CrossValidation pairs the two AVF views of one workload: the
// bit-resolved static estimate and the injection campaign.
type CrossValidation struct {
	Name    string
	Tool    Tool
	Device  string
	Static  *analysis.Estimate
	Dynamic *Result
}

// BandAgreement is one row of the per-bit-band static-vs-injection
// agreement table: the static unmasked estimate for the band against
// the measured unmasked AVF of the fired trials whose flipped bit fell
// in it.
type BandAgreement struct {
	Band     analysis.BitBand
	Static   float64
	Dynamic  float64
	Injected int // fired value-bit trials attributed to the band
}

// Delta is static minus dynamic for the band.
func (b *BandAgreement) Delta() float64 { return b.Static - b.Dynamic }

// BandTable builds the per-band agreement table. Bands with no static
// weight and no fired trials still appear, zero-valued, so the table
// shape is stable.
func (c *CrossValidation) BandTable() []BandAgreement {
	out := make([]BandAgreement, analysis.BandCount)
	for k := range out {
		band := analysis.BitBand(k)
		out[k].Band = band
		out[k].Static = c.Static.Band[k].Unmasked()
		if ba := c.Dynamic.ByBand[band]; ba != nil {
			out[k].Injected = ba.Injected
			if ba.Injected > 0 {
				out[k].Dynamic = float64(ba.SDC+ba.DUE) / float64(ba.Injected)
			}
		}
	}
	return out
}

// StaticUnmasked is the static propagation estimate (SDC + DUE).
func (c *CrossValidation) StaticUnmasked() float64 { return c.Static.Unmasked() }

// DynamicUnmasked is the campaign's measured propagation fraction.
func (c *CrossValidation) DynamicUnmasked() float64 { return c.Dynamic.UnmaskedAVF() }

// Delta is static minus dynamic unmasked AVF; |Delta| within
// CrossValTolerance counts as agreement.
func (c *CrossValidation) Delta() float64 { return c.StaticUnmasked() - c.DynamicUnmasked() }

// Agrees reports whether the two views agree within the tolerance.
func (c *CrossValidation) Agrees() bool {
	d := c.Delta()
	if d < 0 {
		d = -d
	}
	return d <= CrossValTolerance
}

// CrossValidate pairs a campaign the caller ran on runner with the
// static estimate over the same runner's site population.
func CrossValidate(runner *kernels.Runner, dyn *Result) (*CrossValidation, error) {
	st, err := StaticEstimate(runner, dyn.Tool)
	if err != nil {
		return nil, err
	}
	return &CrossValidation{
		Name: runner.Name, Tool: dyn.Tool, Device: runner.Dev.Name,
		Static: st, Dynamic: dyn,
	}, nil
}
