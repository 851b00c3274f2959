package fit

import (
	"math"
	"sort"

	"gpurel/internal/analysis"
)

// Hidden-resource DUE correction (§VII-B). The Eq. 1-4 DUE prediction
// inherits the injectors' blind spot: AVF(INST_i) only sees faults in
// architectural dataflow, so the predicted DUE FIT misses every strike
// in the scheduler, instruction pipe, and MMU/LDST path — the
// population that dominates the beam DUE rate. The correction below
// adds that population back from two sources the model does have: a
// device-level hidden DUE rate extracted from the micro-benchmark beam
// measurements, and the per-workload hidden-resource estimate of
// internal/analysis modulated by the golden run's measured residency
// telemetry, which scales the device rate by how hard the code drives
// the hidden structures.

// MeasuredHiddenDUEBase extracts the device's hidden DUE FIT per unit
// of measured hidden exposure: the minimum, over the ECC-on micros, of
// the measured DUE rate divided by the micro's own DUE-weighted hidden
// exposure (from its golden-run residency telemetry). Micros run with
// ECC on, so storage strikes are corrected or converted and their
// measured DUE rate is dominated by hidden-resource and functional-unit
// strikes; the minimum across micros is the floor every kernel pays.
// Normalizing by the same exposure functional the correction multiplies
// back in makes the calibration cancel exactly for a workload whose
// telemetry matches a micro's. Returns 0 when no micro carries
// telemetry.
func (u *UnitFITs) MeasuredHiddenDUEBase() float64 {
	if u.MicroHiddenExposure == nil {
		return 0
	}
	names := make([]string, 0, len(u.DUE))
	for name := range u.DUE {
		if name == "RF" {
			continue // measured with ECC off; storage DUEs pollute the rate
		}
		names = append(names, name)
	}
	sort.Strings(names)
	base := math.Inf(1)
	for _, name := range names {
		exp := u.MicroHiddenExposure[name]
		if exp <= 0 {
			continue
		}
		if rate := u.DUE[name] / exp; rate > 0 && rate < base {
			base = rate
		}
	}
	if math.IsInf(base, 1) {
		return 0
	}
	return base
}

// ApplyMeasuredDUE folds the hidden-resource DUE estimate into a
// prediction: the hidden DUE floor calibrated per unit of measured
// exposure, times the workload's own DUE-weighted exposure from the
// golden telemetry. The original Eq. 1-4 fields are untouched so both
// views stay reportable side by side. A nil or non-measured (static
// only) estimate is a no-op.
func (p Prediction) ApplyMeasuredDUE(units *UnitFITs, hid *analysis.HiddenEstimate) Prediction {
	if units == nil || hid == nil || !hid.Measured {
		return p
	}
	p.MeasuredHiddenDUE = hid.DUE
	p.DUECorrectionMeasured = units.MeasuredHiddenDUEBase() * hid.DUEExposure()
	p.DUEFITCorrectedMeasured = p.DUEFIT + p.DUECorrectionMeasured
	return p
}
