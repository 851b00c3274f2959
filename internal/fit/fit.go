// Package fit implements the paper's FIT-rate prediction model (§IV) and
// the beam-versus-simulation comparison of §VII:
//
//	FIT† = Σ_i f(INST_i)·AVF(INST_i)·FIT(INST_i)·φ  +  Σ_j f(MEM_j)·AVF(MEM_j)·FIT(MEM_j)
//	φ    = AchievedOccupancy · IPC                                   (Eq. 1–4)
//
// The instruction frequencies f come from profiling (Figure 1 / Table I),
// the per-unit FIT rates from beam campaigns over the §V micro-benchmarks
// (Figure 3), and the AVFs from the fault injectors (Figure 4). The
// memory summation only applies with ECC disabled (§IV-A). Comparisons
// use the paper's signed-ratio convention: positive when the beam
// measured more than the prediction, negative inverse otherwise.
package fit

import (
	"fmt"

	"gpurel/internal/beam"
	"gpurel/internal/faultinj"
	"gpurel/internal/isa"
	"gpurel/internal/microbench"
	"gpurel/internal/profiler"
	"gpurel/internal/stats"
)

// UnitFITs collects the micro-benchmark beam measurements of one device:
// the Figure-3 data feeding the predictor.
type UnitFITs struct {
	Device string
	// SDC and DUE map micro-benchmark names to FIT rates (a.u.).
	SDC map[string]float64
	DUE map[string]float64
	// MicroAVF is each micro-benchmark's own SDC AVF, used to undo the
	// logical masking in its measured FIT (§V-A: always above 70%, 1.0
	// for the integer versions).
	MicroAVF map[string]float64
	// MicroPhi is each micro-benchmark's own parallelism factor
	// (occupancy x IPC). FIT(INST_i) in Equation 2 is the rate of a
	// fully exercised unit; since the micro-benchmark itself ran at
	// MicroPhi, the predictor normalizes by it before applying the
	// application's phi (Eq. 4).
	MicroPhi map[string]float64
	// MicroHiddenExposure is each micro-benchmark's DUE-weighted hidden
	// exposure from the measured-residency model (analysis.HiddenEstimate
	// .DUEExposure over the micro's golden telemetry). It is the
	// denominator MeasuredHiddenDUEBase calibrates the device's hidden
	// DUE rate against; absent (nil) when the study ran without
	// telemetry, in which case no hidden-DUE correction applies.
	MicroHiddenExposure map[string]float64
	// RFPerByteSDC / RFPerByteDUE are the register-file storage FIT per
	// byte, derived from the RF micro-benchmark (reported per MB in
	// Figure 3); they are the FIT(MEM) term of Equation 3.
	RFPerByteSDC float64
	RFPerByteDUE float64
}

// FromMicroResults assembles UnitFITs from beam results over the §V
// micro-benchmark catalog. rfExposedBytes is the register-file storage
// the RF micro-benchmark exposed (threads x registers x 4).
// microHidden optionally carries each micro's measured hidden DUE
// exposure (analysis.HiddenEstimate.DUEExposure); nil disables the
// measured DUE correction.
func FromMicroResults(device string, results map[string]*beam.Result, microAVF, microPhi, microHidden map[string]float64, rfExposedBytes int) (*UnitFITs, error) {
	u := &UnitFITs{
		Device:   device,
		SDC:      make(map[string]float64),
		DUE:      make(map[string]float64),
		MicroAVF: make(map[string]float64),
		MicroPhi: make(map[string]float64),
	}
	if microHidden != nil {
		u.MicroHiddenExposure = make(map[string]float64)
	}
	for name, r := range results {
		u.SDC[name] = r.SDCFIT.Rate
		u.DUE[name] = r.DUEFIT.Rate
		avf := microAVF[name]
		if avf <= 0 {
			avf = 0.85 // the paper's floor: micro AVFs are >= 70%
		}
		if avf > 1 {
			avf = 1
		}
		u.MicroAVF[name] = avf
		phi := microPhi[name]
		if phi <= 0 {
			phi = 1
		}
		u.MicroPhi[name] = phi
		if u.MicroHiddenExposure != nil {
			if e := microHidden[name]; e > 0 {
				u.MicroHiddenExposure[name] = e
			}
		}
	}
	rf, ok := results["RF"]
	if !ok {
		return nil, fmt.Errorf("fit: micro results lack the RF benchmark")
	}
	if rfExposedBytes <= 0 {
		return nil, fmt.Errorf("fit: invalid RF exposure %d bytes", rfExposedBytes)
	}
	u.RFPerByteSDC = rf.SDCFIT.Rate / float64(rfExposedBytes)
	u.RFPerByteDUE = rf.DUEFIT.Rate / float64(rfExposedBytes)
	return u, nil
}

// Prediction is the model's output for one workload configuration.
type Prediction struct {
	Name   string
	ECC    bool
	SDCFIT float64
	DUEFIT float64

	// Breakdown.
	InstSDC float64
	InstDUE float64
	MemSDC  float64
	MemDUE  float64
	Phi     float64

	// Covered is the fraction of dynamic lane-ops whose functional unit
	// has a micro-benchmark FIT (the paper covers >70%; the remainder is
	// one of the acknowledged underestimation sources, §VII-A).
	Covered float64

	// Hidden-resource DUE correction (§VII-B), filled by
	// ApplyMeasuredDUE from the golden run's residency telemetry; all
	// three stay zero when no correction applied.
	MeasuredHiddenDUE       float64 // measured P(DUE | hidden strike)
	DUECorrectionMeasured   float64 // additive hidden-resource DUE FIT (a.u.)
	DUEFITCorrectedMeasured float64 // DUEFIT + DUECorrectionMeasured

	// PerUnit attributes the instruction-term SDC FIT to units.
	PerUnit map[string]float64

	// DUEByMode splits the (uncorrected) DUEFIT across the typed DUE
	// mechanisms, in the proportions of the feeding campaign's typed-DUE
	// ledger (sim.DUEMode spellings as keys). Campaigns with no typed
	// DUEs leave every mode at zero.
	DUEByMode map[string]float64
}

// Ablation switches individual terms of the prediction model off, to
// quantify what each contributes: the "which assumptions matter"
// analysis of DESIGN.md §5 and `gpurel ablate`. The zero value is the
// paper's model.
type Ablation struct {
	// NoPhi drops Equation 4 entirely: no occupancy*IPC scaling. The
	// paper introduces phi precisely because predictions without it are
	// unusable (§IV-B).
	NoPhi bool
	// NoMicroPhiNorm applies the application's phi but does not express
	// the micro-benchmark FITs at full utilization first (the paper's
	// literal Eq. 2 reading).
	NoMicroPhiNorm bool
	// NoDemask uses the micro-benchmark FITs as measured instead of
	// dividing out their own AVFs (§V-A).
	NoDemask bool
	// NoMemTerm drops Equation 3's memory summation even with ECC off.
	NoMemTerm bool
}

// Predict applies Equations 1-4 to one workload, less the terms ab
// switches off (the zero Ablation keeps them all).
//
// The AVF result may come from a proxy campaign when the paper's tooling
// cannot instrument the code directly (proprietary libraries on Kepler,
// FP16 anywhere); the caller selects the proxy, as the paper does
// (§III-D, §VI).
func Predict(cp *profiler.CodeProfile, avf *faultinj.Result, units *UnitFITs, ecc bool, ab Ablation) Prediction {
	p := Prediction{
		Name:    cp.Name,
		ECC:     ecc,
		Phi:     cp.Phi(),
		PerUnit: make(map[string]float64),
	}
	phi := p.Phi
	if ab.NoPhi {
		phi = 1
	}
	var covered uint64
	// Numeric op order keeps the Eq. 2 accumulation deterministic (map
	// order would shift the sums by a ULP between runs).
	for op := isa.Op(0); int(op) < isa.OpCount; op++ {
		n, ok := cp.PerOpLane[op]
		if !ok {
			continue
		}
		unit := microbench.UnitFor(op)
		if unit == "" {
			continue // OTHERS: no measured unit FIT
		}
		fitSDC, ok := units.SDC[unit]
		if !ok {
			continue // unit not characterized on this device
		}
		covered += n
		f := float64(n) / float64(cp.TotalLaneOps)
		classAVF, ok := avf.PerClass[op.ClassOf()]
		if !ok {
			continue // injector never reached this class
		}
		// De-mask the micro-benchmark FIT by its own AVF (§V-A) and
		// express it at full utilization by dividing out the micro's
		// own phi before applying the application's (Eq. 4).
		scale := phi
		if !ab.NoPhi && !ab.NoMicroPhiNorm {
			scale = phi / units.MicroPhi[unit]
		}
		demask := units.MicroAVF[unit]
		if ab.NoDemask {
			demask = 1
		}
		sdc := f * classAVF.SDCAVF.P * (fitSDC / demask) * scale
		p.InstSDC += sdc
		p.PerUnit[unit] += sdc
		p.InstDUE += f * classAVF.DUEAVF.P * (units.DUE[unit] / demask) * scale
	}
	p.Covered = float64(covered) / float64(cp.TotalLaneOps)

	if !ecc && !ab.NoMemTerm {
		memAVFSDC := avf.SDCAVF.P
		memAVFDUE := avf.DUEAVF.P
		if gpr, ok := avf.ByMode[faultinj.ModeGPR]; ok && gpr.Injected > 0 {
			memAVFSDC = gpr.SDCAVF.P
			memAVFDUE = gpr.DUEAVF.P
		}
		mem := float64(cp.MemoryBytes)
		p.MemSDC = units.RFPerByteSDC * mem * memAVFSDC
		p.MemDUE = units.RFPerByteDUE * mem * memAVFDUE
	}
	p.SDCFIT = p.InstSDC + p.MemSDC
	p.DUEFIT = p.InstDUE + p.MemDUE
	mix := avf.DUEModes.Mix()
	p.DUEByMode = map[string]float64{
		"hang":            p.DUEFIT * mix.Hang,
		"illegal-address": p.DUEFIT * mix.IllegalAddress,
		"sync-error":      p.DUEFIT * mix.SyncError,
		"unattributed":    p.DUEFIT * mix.Unattributed,
	}
	return p
}

// Comparison pairs a beam measurement with its prediction, in the
// Figure-6 signed-ratio convention.
type Comparison struct {
	Name     string
	ECC      bool
	Tool     faultinj.Tool
	Measured float64
	Predict  float64
	Ratio    float64 // signed: +x beam is x times higher, -x prediction is
}

// Compare builds the Figure-6 data point for the SDC channel.
func Compare(name string, ecc bool, tool faultinj.Tool, beamFIT, predicted float64) Comparison {
	return Comparison{
		Name: name, ECC: ecc, Tool: tool,
		Measured: beamFIT, Predict: predicted,
		Ratio: stats.SignedRatio(beamFIT, predicted),
	}
}
