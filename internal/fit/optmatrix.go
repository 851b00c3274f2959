package fit

import (
	"gpurel/internal/faultinj"
	"gpurel/internal/profiler"
)

// Optimization-matrix predictions: each matrix cell gets its own
// Equation 1-4 FIT prediction, driven by the cell's own code profile
// (the instruction mix changes with the configuration — that is the
// point of the matrix) and the cell's campaign AVFs. The cross-section-
// vs-optimization table then pairs, per configuration, the measured AVF
// movement with the modeled FIT movement and the static explainer
// columns that account for both.

// PredictOptCell applies Equations 1-4 to one matrix cell and records
// the FIT pair on the cell. With ECC on the memory term drops, which is
// the matrix's natural operating point: the knobs vary logic codegen,
// and the logic AVF is what the instruction term sees.
func PredictOptCell(cp *profiler.CodeProfile, cell *faultinj.OptCell, units *UnitFITs, ecc bool) Prediction {
	p := Predict(cp, cell.Dynamic, units, ecc, Ablation{})
	cell.PredSDCFIT = p.SDCFIT
	cell.PredDUEFIT = p.DUEFIT
	return p
}
