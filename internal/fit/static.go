package fit

import (
	"gpurel/internal/analysis"
	"gpurel/internal/faultinj"
	"gpurel/internal/isa"
	"gpurel/internal/profiler"
	"gpurel/internal/stats"
)

// Static AVF path: the predictor's AVF(INST_i) and AVF(MEM) terms can
// come from the injection-free static estimator (internal/analysis)
// instead of a fault-injection campaign. StaticAVFResult reshapes an
// analysis.Estimate into the faultinj.Result form Predict consumes, so
// the two AVF sources are drop-in interchangeable and their predictions
// directly comparable (the faultinj cross-validation quantifies how far
// the sources themselves diverge). An estimate from Result.Estimate or
// faultinj.StaticEstimate is bit-resolved — its SDC/DUE are the
// destination-width means of the per-bit ACE vectors, matching an
// injector that flips a uniformly random destination bit — so the
// prediction inherits the bit-level masking proofs with no change here.

// StaticAVFResult converts a static estimate into a synthetic campaign
// result. The proportions carry only point estimates: no faults were
// injected, so there are no trials and no Wilson intervals (Trials is 0
// to make the synthetic origin visible to any consumer that looks).
func StaticAVFResult(est *analysis.Estimate, tool faultinj.Tool, device string) *faultinj.Result {
	res := &faultinj.Result{
		Name:   est.Name,
		Tool:   tool,
		Device: device,
		Tally: faultinj.Tally{
			SDCAVF: stats.Proportion{P: est.SDC},
			DUEAVF: stats.Proportion{P: est.DUE},
		},
		PerClass: make(map[isa.Class]*faultinj.ClassAVF, len(est.PerClass)),
		PerMode:  map[faultinj.Mode]int{},
		ByMode:   map[faultinj.Mode]*faultinj.ModeAVF{},
	}
	for class, ce := range est.PerClass {
		res.PerClass[class] = &faultinj.ClassAVF{
			Class: class,
			Tally: faultinj.Tally{
				SDCAVF: stats.Proportion{P: ce.SDC},
				DUEAVF: stats.Proportion{P: ce.DUE},
			},
		}
	}
	return res
}

// PredictStatic applies Equations 1-4 with the static AVF estimate in
// place of a campaign result.
func PredictStatic(cp *profiler.CodeProfile, est *analysis.Estimate, tool faultinj.Tool, device string, units *UnitFITs, ecc bool) Prediction {
	return Predict(cp, StaticAVFResult(est, tool, device), units, ecc)
}
