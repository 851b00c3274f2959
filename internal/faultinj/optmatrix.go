package faultinj

import (
	"fmt"
	"math"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/kernels"
)

// The compiler-optimization reliability matrix (§VI's
// cross-section-vs-optimization axis, made systematic): one workload
// compiled at every configuration of the asm matrix — O0/O1/O2 base
// pipelines crossed with the unroll, copy-propagation, and
// spill-through-shared knobs — each cell carrying a full NVBitFI-style
// injection campaign, the bit-resolved static AVF estimate, and the
// static explainer metrics that account for the movement. The injector
// is held fixed across cells (NVBitFI site semantics at every
// configuration) so every AVF delta is attributable to codegen, not
// tool semantics.

// OptCell is one (workload, optimization configuration) cell.
type OptCell struct {
	Opt     asm.OptLevel
	Dynamic *Result              // injection campaign at this configuration
	Static  *analysis.Estimate   // bit-resolved static AVF
	Explain *analysis.OptExplain // static "why" metrics

	// PredSDCFIT / PredDUEFIT are the Eq. 1-4 FIT predictions driven by
	// this cell's dynamic campaign AVFs, filled by the caller when unit
	// FITs are available (internal/fit owns the model; zero otherwise).
	PredSDCFIT float64
	PredDUEFIT float64
}

// StaticUnmasked is the cell's static propagation estimate.
func (c *OptCell) StaticUnmasked() float64 { return c.Static.Unmasked() }

// DynamicUnmasked is the cell's measured propagation fraction.
func (c *OptCell) DynamicUnmasked() float64 { return c.Dynamic.UnmaskedAVF() }

// OptMatrix is the full matrix for one workload on one device.
type OptMatrix struct {
	Name   string
	Device string
	Tool   Tool
	Cells  []*OptCell // in configuration order
}

// OptMatrixConfig sizes a matrix campaign.
type OptMatrixConfig struct {
	// Faults is the per-cell NVBitFI-style sample size (0: 1000).
	Faults int
	// Workers bounds per-cell campaign parallelism (0: GOMAXPROCS).
	Workers int
	// Seed makes the matrix reproducible; each cell derives its own
	// stream from it and the cell's configuration.
	Seed uint64
}

// RunOptMatrix runs the optimization matrix for one workload over the
// caller's runners, one per configuration (asm.MatrixConfigs, in
// order): per runner, a fixed-injector NVBitFI campaign plus the static
// estimate and explainer.
func RunOptMatrix(mc OptMatrixConfig, runners []*kernels.Runner) (*OptMatrix, error) {
	if len(runners) == 0 {
		return nil, fmt.Errorf("faultinj: matrix without runners")
	}
	m := &OptMatrix{Name: runners[0].Name, Device: runners[0].Dev.Name, Tool: NVBitFI}
	for _, r := range runners {
		cell, err := runOptCell(mc, r)
		if err != nil {
			return nil, fmt.Errorf("faultinj: matrix %s/%s at %s: %w", r.Dev.Name, r.Name, r.Opt, err)
		}
		m.Cells = append(m.Cells, cell)
	}
	return m, nil
}

// runOptCell runs one cell against an already-built runner.
func runOptCell(mc OptMatrixConfig, r *kernels.Runner) (*OptCell, error) {
	// Per-cell seed: distinct deterministic stream per configuration, so
	// adding or removing one configuration does not shift the others.
	seed := mc.Seed*0x9E3779B9 + uint64(r.Opt)
	dyn, err := run(Config{Tool: NVBitFI, TotalFaults: mc.Faults, Workers: mc.Workers, Seed: seed}, r)
	if err != nil {
		return nil, err
	}
	st, err := StaticEstimate(r, NVBitFI)
	if err != nil {
		return nil, err
	}
	return &OptCell{Opt: r.Opt, Dynamic: dyn, Static: st, Explain: ExplainRunner(r)}, nil
}

// ExplainRunner aggregates the static explainer over a runner's
// distinct programs. Counts (instructions, spill pairs, exposure, ACE
// mass) sum across programs; residency and pressure means weight each
// program by its instruction count; maxima and register demand take
// the worst program. Launch repetition is ignored — the explainer
// describes the code, not the schedule.
func ExplainRunner(r *kernels.Runner) *analysis.OptExplain {
	agg := &analysis.OptExplain{}
	seen := map[string]bool{}
	var wInstr float64
	for _, a := range r.Analyses() {
		if seen[a.Prog.Name] {
			continue
		}
		seen[a.Prog.Name] = true
		e := a.Explain(nil)
		w := float64(e.Instrs)
		wInstr += w
		agg.Instrs += e.Instrs
		if e.Regs > agg.Regs {
			agg.Regs = e.Regs
		}
		agg.MeanLiveRange += w * e.MeanLiveRange
		if e.MaxLiveRange > agg.MaxLiveRange {
			agg.MaxLiveRange = e.MaxLiveRange
		}
		agg.MeanPressure += w * e.MeanPressure
		if e.MaxPressure > agg.MaxPressure {
			agg.MaxPressure = e.MaxPressure
		}
		agg.SpillPairs += e.SpillPairs
		agg.SpillExposure += e.SpillExposure
		agg.ACEMass += e.ACEMass
		agg.DeadBitMass += e.DeadBitMass
	}
	if wInstr > 0 {
		agg.MeanLiveRange /= wInstr
		agg.MeanPressure /= wInstr
	}
	if agg.SpillPairs > 0 {
		agg.MeanSpillGap = float64(agg.SpillExposure) / float64(agg.SpillPairs)
	}
	return agg
}

// OptOrderingEps is the tie width, in absolute unmasked-AVF terms, for
// the static-vs-injection ordering comparison. Matrix configurations
// whose AVFs differ by less than this — in either view — are treated as
// tied: several knobs (copy-propagation on code with no copies to
// propagate, unrolling a kernel with no counted loops) legitimately
// change nothing, and a pair should only count as "decided" when its
// movement clears campaign sampling noise. At the default 160
// faults/cell, the standard error of a pairwise AVF difference is
// ~0.056 near AVF 0.5, so 0.08 (~1.5 sigma) keeps noise-level
// movements out of the verdict; empirically, every CrossValKernels
// matrix on both devices holds zero discordant pairs at this width
// across independent campaign seeds, while a noise-level band (0.04)
// flips CCL's spill column seed to seed.
const OptOrderingEps = 0.08

// OrderingAgreement compares the static and dynamic orderings of the
// matrix cells pairwise with epsilon ties: a pair is concordant when
// both views order it the same way (or both call it a tie), discordant
// when they order it oppositely, and excluded when one view ties and
// the other does not (the tie half carries no ordering information at
// this resolution).
func (m *OptMatrix) OrderingAgreement(eps float64) (concordant, discordant int) {
	for i := 0; i < len(m.Cells); i++ {
		for j := i + 1; j < len(m.Cells); j++ {
			ds := m.Cells[i].StaticUnmasked() - m.Cells[j].StaticUnmasked()
			dd := m.Cells[i].DynamicUnmasked() - m.Cells[j].DynamicUnmasked()
			sTie, dTie := math.Abs(ds) <= eps, math.Abs(dd) <= eps
			switch {
			case sTie && dTie:
				concordant++
			case sTie != dTie:
				// excluded
			case (ds > 0) == (dd > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	return concordant, discordant
}

// OrderingTau is the Kendall-style agreement score over the decided
// pairs: (concordant - discordant) / (concordant + discordant), 1 when
// every decided pair agrees. A matrix with no decided pairs scores 1
// (nothing contradicts).
func (m *OptMatrix) OrderingTau(eps float64) float64 {
	c, d := m.OrderingAgreement(eps)
	if c+d == 0 {
		return 1
	}
	return float64(c-d) / float64(c+d)
}

// OrderingAgrees is the matrix cross-validation gate: the static
// explainer must reproduce the injection campaign's per-configuration
// AVF ordering with no discordant pair at the documented tie width.
func (m *OptMatrix) OrderingAgrees() bool {
	_, d := m.OrderingAgreement(OptOrderingEps)
	return d == 0
}
