// Package core orchestrates the paper's full cross-validation study: it
// runs, for each device, the micro-benchmark beam campaigns (Figure 3),
// the workload profiling (Table I, Figure 1), the SASSIFI / NVBitFI
// injection campaigns (Figure 4), the workload beam campaigns with ECC
// on and off (Figure 5), and finally the Equation 1-4 predictions and
// their beam comparison (Figure 6 and the §VII-B DUE analysis).
//
// It also encodes the paper's substitution rules: on Kepler, codes built
// on proprietary libraries take their AVF from the Volta NVBitFI
// campaign of a proxy workload; FP16 codes take the AVF of their FP32
// sibling because NVBitFI cannot instrument half-precision instructions.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/beam"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/fit"
	"gpurel/internal/kernels"
	"gpurel/internal/microbench"
	"gpurel/internal/par"
	"gpurel/internal/profiler"
	"gpurel/internal/stats"
	"gpurel/internal/suite"
)

// Options sizes the study. The zero value gives the standard campaign
// sizes; Scale shrinks every sample count proportionally (tests use
// small scales, the paper-scale run uses 1.0).
type Options struct {
	MicroTrials     int // beam trials per micro-benchmark (default 300)
	CodeTrials      int // beam trials per workload/ECC config (default 350)
	SassifiPerClass int // SASSIFI faults per instruction class (default 120)
	NVBitFITotal    int // NVBitFI faults per workload (default 500)
	MicroAVFFaults  int // injections per micro for its own AVF (default 80)
	OptFaults       int // injections per optimization-matrix cell (default 160)
	Workers         int
	Seed            uint64
	// Progress, when set, receives one line per completed campaign.
	Progress func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.MicroTrials <= 0 {
		o.MicroTrials = 300
	}
	if o.CodeTrials <= 0 {
		o.CodeTrials = 350
	}
	if o.SassifiPerClass <= 0 {
		o.SassifiPerClass = 120
	}
	if o.NVBitFITotal <= 0 {
		o.NVBitFITotal = 500
	}
	if o.MicroAVFFaults <= 0 {
		o.MicroAVFFaults = 80
	}
	if o.OptFaults <= 0 {
		o.OptFaults = 160
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
	// Campaigns from different codes report concurrently; serialize the
	// sink so interleaved lines stay whole.
	var mu sync.Mutex
	inner := o.Progress
	o.Progress = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		inner(format, args...)
	}
}

// splitWorkers divides a worker budget between n concurrent campaigns
// (outer) and the parallelism inside each campaign (inner).
func splitWorkers(total, n int) (outer, inner int) {
	if n < 1 {
		n = 1
	}
	outer = total
	if outer > n {
		outer = n
	}
	if outer < 1 {
		outer = 1
	}
	inner = total / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// BeamKey identifies one beam configuration of a workload.
type BeamKey struct {
	Code string
	ECC  bool
}

// PredKey identifies one prediction: workload, ECC state, and the
// injector whose AVFs fed it.
type PredKey struct {
	Code string
	ECC  bool
	Tool faultinj.Tool
}

// DeviceStudy is everything measured and predicted on one device.
type DeviceStudy struct {
	Dev *device.Device

	// Figure 3 and its derived per-unit table.
	MicroBeam map[string]*beam.Result
	Units     *fit.UnitFITs

	// Table I / Figure 1.
	Profiles map[string]*profiler.CodeProfile

	// Figure 4 (per tool, per code). Proxied entries are absent here;
	// proxy resolution happens at prediction time.
	AVF map[faultinj.Tool]map[string]*faultinj.Result

	// Figure 5.
	Beam map[BeamKey]*beam.Result

	// Figure 6 plus the DUE channel.
	Predictions map[PredKey]fit.Prediction
	Comparisons []fit.Comparison

	// StaticAVF is the per-code injection-free static AVF estimate over
	// the NVBitFI site population: the bit-resolved estimator
	// (launch-geometry-seeded known-bits/range analysis). The
	// cross-validation artifacts compare it against AVF[NVBitFI].
	StaticAVF map[string]*analysis.Estimate

	// StaticDUEModes is the per-code static DUE-mode distribution over
	// the same NVBitFI site population: how a flip kills the kernel,
	// proven from the known-bits/range lattice. The due_modes artifacts
	// compare it against AVF[NVBitFI]'s typed-DUE ledger.
	StaticDUEModes map[string]*analysis.DUEModeEstimate

	// OptMatrix holds, per cross-validation workload, the compiler-
	// optimization reliability matrix: every asm.MatrixConfigs
	// configuration with its fixed-injector campaign, static estimate,
	// explainer metrics, and per-cell Eq. 1-4 prediction.
	OptMatrix map[string]*faultinj.OptMatrix

	// TwoLevel holds, per cross-validation workload, the two-level
	// propagation estimate (per-static-site sampling, dynamic-weight
	// propagation with the SDC pattern model) run against the same
	// NVBitFI site population as AVF[NVBitFI] — the cheap side of the
	// patterns_twolevel artifact.
	TwoLevel map[string]*faultinj.TwoLevelResult

	// StaticHidden is the per-code static hidden-resource DUE estimate
	// (internal/analysis): structural proxies only. MeasuredHidden is
	// the same estimate modulated by the golden run's residency
	// telemetry (internal/sim timelines); it feeds the hidden-resource
	// DUE correction the injectors cannot supply.
	StaticHidden   map[string]*analysis.HiddenEstimate
	MeasuredHidden map[string]*analysis.HiddenEstimate

	// DUEUnderestimate is the average beam/predicted DUE ratio per ECC
	// state (§VII-B: 120x / 629x on K40c, 60x / 46,700x on V100).
	DUEUnderestimate map[bool]float64

	// DUEMeasuredUnderestimate is the same ratio after the
	// measured-residency hidden-resource correction: how much of the
	// §VII-B gap the correction closes.
	DUEMeasuredUnderestimate map[bool]float64
}

// Study is the full two-device reproduction.
type Study struct {
	Kepler *DeviceStudy
	Volta  *DeviceStudy
}

// eccOffSubset lists the Kepler codes the paper beamed with ECC
// disabled (Figure 5 left group).
var keplerECCOff = map[string]bool{
	"FHOTSPOT": true, "FLAVA": true, "FMXM": true, "NW": true,
	"MERGESORT": true, "QUICKSORT": true, "FGEMM": true,
	"FYOLOV2": true, "FYOLOV3": true,
}

// BeamConfigs returns the (code, ECC) matrix for a device, following
// Figures 5 and 6: Kepler tests everything with ECC on plus a nine-code
// ECC-off group; Volta tests the non-library codes with ECC off and the
// library codes with ECC on (beam-time restrictions, §VI).
func BeamConfigs(dev *device.Device, entries []suite.Entry) []BeamKey {
	var keys []BeamKey
	for _, e := range entries {
		if dev.Arch == device.Kepler {
			keys = append(keys, BeamKey{e.Name, true})
			if keplerECCOff[e.Name] {
				keys = append(keys, BeamKey{e.Name, false})
			}
		} else {
			keys = append(keys, BeamKey{e.Name, !eccOffOnVolta(e)})
		}
	}
	return keys
}

func eccOffOnVolta(e suite.Entry) bool { return !e.Library }

// RunDevice executes the complete single-device study.
func RunDevice(dev *device.Device, opts Options) (*DeviceStudy, error) {
	// One build per (workload, opt level): the golden run, profiles, and
	// checkpoint sequences are shared across the calibration, profiling,
	// injection, and beam phases. Budget 0: a study never evicts.
	cache := kernels.NewCache(0)

	// 1. Micro-benchmark beam campaigns (Figure 3) and the unit FITs.
	microBeam, units, err := Calibrate(dev, opts, cache)
	if err != nil {
		return nil, err
	}
	opts.defaults()
	ds := &DeviceStudy{
		Dev:                      dev,
		MicroBeam:                microBeam,
		Units:                    units,
		Profiles:                 make(map[string]*profiler.CodeProfile),
		AVF:                      make(map[faultinj.Tool]map[string]*faultinj.Result),
		StaticAVF:                make(map[string]*analysis.Estimate),
		StaticDUEModes:           make(map[string]*analysis.DUEModeEstimate),
		Beam:                     make(map[BeamKey]*beam.Result),
		Predictions:              make(map[PredKey]fit.Prediction),
		OptMatrix:                make(map[string]*faultinj.OptMatrix),
		TwoLevel:                 make(map[string]*faultinj.TwoLevelResult),
		StaticHidden:             make(map[string]*analysis.HiddenEstimate),
		MeasuredHidden:           make(map[string]*analysis.HiddenEstimate),
		DUEUnderestimate:         make(map[bool]float64),
		DUEMeasuredUnderestimate: make(map[bool]float64),
	}
	var mu sync.Mutex // guards the ds maps

	// 2. Profiling (Table I, Figure 1), concurrent across codes.
	entries := suite.ForDevice(dev)
	outer, _ := splitWorkers(opts.Workers, len(entries))
	err = par.ForEach(len(entries), outer, func(i int) error {
		e := entries[i]
		r, err := cache.Get(e.Name, e.Build, dev, asm.O2)
		if err != nil {
			return fmt.Errorf("core: profiling %s: %w", e.Name, err)
		}
		cp, err := profiler.Profile(r)
		if err != nil {
			return err
		}
		hid := faultinj.StaticHidden(r)
		mhid := faultinj.MeasuredHidden(r)
		mu.Lock()
		ds.Profiles[e.Name] = cp
		ds.StaticHidden[e.Name] = hid
		ds.MeasuredHidden[e.Name] = mhid
		mu.Unlock()
		opts.Progress("profile %-10s: IPC %.2f occ %.2f regs %d shared %dB hiddenDUE %.3f/%.3f (static/measured)",
			e.Name, cp.IPC, cp.Occupancy, cp.RegsPerThread, cp.SharedBytes, hid.DUE, mhid.DUE)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// 3. Injection campaigns (Figure 4), concurrent across (tool, code)
	// pairs; each campaign reuses the cached runner for its pipeline.
	tools := []faultinj.Tool{faultinj.NVBitFI}
	if dev.Arch == device.Kepler {
		tools = []faultinj.Tool{faultinj.Sassifi, faultinj.NVBitFI}
	}
	type injJob struct {
		tool faultinj.Tool
		e    suite.Entry
	}
	var injJobs []injJob
	for _, tool := range tools {
		ds.AVF[tool] = make(map[string]*faultinj.Result)
		for _, e := range entries {
			if injectable(dev, tool, e) {
				injJobs = append(injJobs, injJob{tool, e})
			}
		}
	}
	outer, innerW := splitWorkers(opts.Workers, len(injJobs))
	err = par.ForEach(len(injJobs), outer, func(i int) error {
		j := injJobs[i]
		r, err := cache.Get(j.e.Name, j.e.Build, dev, j.tool.OptLevel())
		if err != nil {
			return fmt.Errorf("core: %s on %s: %w", j.tool, j.e.Name, err)
		}
		res, err := faultinj.RunWithRunner(faultinj.Config{
			Tool: j.tool, FaultsPerClass: opts.SassifiPerClass,
			TotalFaults: opts.NVBitFITotal, Workers: innerW,
			Seed: opts.Seed ^ hash(j.e.Name) ^ uint64(j.tool),
		}, r)
		if err != nil {
			return fmt.Errorf("core: %s on %s: %w", j.tool, j.e.Name, err)
		}
		// The static counterparts of the NVBitFI campaign: deterministic,
		// injection-free, and the other side of the cross-validation
		// artifacts. Computed here because the runner is already built.
		var st *analysis.Estimate
		var dm *analysis.DUEModeEstimate
		if j.tool == faultinj.NVBitFI {
			if st, err = faultinj.StaticEstimate(r, j.tool); err != nil {
				return fmt.Errorf("core: static estimate %s: %w", j.e.Name, err)
			}
			if dm, err = faultinj.StaticDUEModes(r, j.tool); err != nil {
				return fmt.Errorf("core: static DUE modes %s: %w", j.e.Name, err)
			}
		}
		mu.Lock()
		ds.AVF[j.tool][j.e.Name] = res
		if st != nil {
			ds.StaticAVF[j.e.Name] = st
			ds.StaticDUEModes[j.e.Name] = dm
		}
		mu.Unlock()
		opts.Progress("%s %-10s: AVF SDC %.3f DUE %.3f (n=%d)",
			j.tool, j.e.Name, res.SDCAVF.P, res.DUEAVF.P, res.Injected)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// 3b. Compiler-optimization reliability matrix over the cross-
	// validation workloads: every asm.MatrixConfigs configuration gets a
	// fixed-injector NVBitFI campaign, the static estimate and explainer
	// (the "why" columns of the opt_* artifacts), and an Eq. 1-4
	// prediction from its own per-configuration code profile at ECC on
	// (the memory term drops, leaving the logic AVF the matrix varies).
	var matrixJobs []suite.Entry
	for _, e := range entries {
		if matrixKernel(e.Name) {
			matrixJobs = append(matrixJobs, e)
		}
	}
	outer, innerW = splitWorkers(opts.Workers, len(matrixJobs))
	err = par.ForEach(len(matrixJobs), outer, func(i int) error {
		e := matrixJobs[i]
		var runners []*kernels.Runner
		for _, opt := range asm.MatrixConfigs() {
			r, err := cache.Get(e.Name, e.Build, dev, opt)
			if err != nil {
				return fmt.Errorf("core: opt matrix %s at %s: %w", e.Name, opt, err)
			}
			runners = append(runners, r)
		}
		m, err := faultinj.RunOptMatrix(faultinj.OptMatrixConfig{
			Faults: opts.OptFaults, Workers: innerW,
			Seed: opts.Seed ^ hash(e.Name) ^ 0x097a11e1,
		}, runners)
		if err != nil {
			return fmt.Errorf("core: opt matrix %s: %w", e.Name, err)
		}
		for ci, cell := range m.Cells {
			cp, err := profiler.Profile(runners[ci])
			if err != nil {
				return fmt.Errorf("core: opt profile %s at %s: %w", e.Name, cell.Opt, err)
			}
			fit.PredictOptCell(cp, cell, ds.Units, true)
		}
		mu.Lock()
		ds.OptMatrix[e.Name] = m
		mu.Unlock()
		opts.Progress("opt matrix %-10s: %d configs, ordering tau %.2f",
			e.Name, len(m.Cells), m.OrderingTau(faultinj.OptOrderingEps))
		return nil
	})
	if err != nil {
		return nil, err
	}

	// 3c. Two-level estimates over the cross-validation workloads: the
	// stratified per-site estimator the patterns_twolevel artifact
	// compares against the exhaustive NVBitFI campaigns of phase 3. The
	// runner (and its golden profiles) is shared with that phase via the
	// cache, so this costs only the level-1 site samples.
	var tlJobs []suite.Entry
	for _, e := range matrixJobs {
		if injectable(dev, faultinj.NVBitFI, e) {
			tlJobs = append(tlJobs, e)
		}
	}
	outer, innerW = splitWorkers(opts.Workers, len(tlJobs))
	err = par.ForEach(len(tlJobs), outer, func(i int) error {
		e := tlJobs[i]
		r, err := cache.Get(e.Name, e.Build, dev, faultinj.NVBitFI.OptLevel())
		if err != nil {
			return fmt.Errorf("core: two-level %s: %w", e.Name, err)
		}
		res, err := faultinj.TwoLevelEstimateWithRunner(faultinj.TwoLevelConfig{
			Tool: faultinj.NVBitFI, Workers: innerW,
			Seed: opts.Seed ^ hash(e.Name) ^ 0x2c0de1,
		}, r)
		if err != nil {
			return fmt.Errorf("core: two-level %s: %w", e.Name, err)
		}
		mu.Lock()
		ds.TwoLevel[e.Name] = res
		mu.Unlock()
		opts.Progress("two-level %-10s: SDC %.3f DUE %.3f (%d sites, %d trials)",
			e.Name, res.SDCAVF, res.DUEAVF, res.Sites, res.Trials)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// 4. Beam campaigns over the codes (Figure 5), concurrent across
	// (code, ECC) configurations.
	keys := BeamConfigs(dev, entries)
	outer, innerW = splitWorkers(opts.Workers, len(keys))
	err = par.ForEach(len(keys), outer, func(i int) error {
		key := keys[i]
		e, err := suite.Find(entries, key.Code)
		if err != nil {
			return err
		}
		r, err := cache.Get(e.Name, e.Build, dev, asm.O2)
		if err != nil {
			return err
		}
		res, err := beam.Run(beam.Config{
			ECC: key.ECC, Trials: opts.CodeTrials, Workers: innerW,
			Seed: opts.Seed ^ hash(e.Name) ^ boolBit(key.ECC),
		}, r)
		if err != nil {
			return fmt.Errorf("core: beam %s ecc=%v: %w", e.Name, key.ECC, err)
		}
		mu.Lock()
		ds.Beam[key] = res
		mu.Unlock()
		opts.Progress("beam %-10s ecc=%-5v: SDC %.3f DUE %.3f a.u.",
			e.Name, key.ECC, res.SDCFIT.Rate, res.DUEFIT.Rate)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// Calibrate runs the micro-benchmark beam campaigns of Figure 3 and
// turns them into the unit FITs the Eq. 1-4 predictor takes: each
// micro's beam FITs with its own measured AVF (the §V-A de-masking),
// its own phi (the Eq. 4 normalization) and its measured hidden DUE
// exposure, plus the register-file storage FIT per byte. It returns
// the micro beam results and the unit FITs. ECC is enabled for all
// micro-benchmarks except RF (§V-B). Runners come from cache. Micros
// run concurrently; each campaign result depends only on its own seed,
// so the split does not change any number.
func Calibrate(dev *device.Device, opts Options, cache *kernels.Cache) (map[string]*beam.Result, *fit.UnitFITs, error) {
	opts.defaults()
	var mu sync.Mutex // guards the micro accumulators
	microBeam := make(map[string]*beam.Result)
	microAVF := make(map[string]float64)
	microPhi := make(map[string]float64)
	microHidden := make(map[string]float64)
	var rfExposedBytes int
	micros := microbench.Catalog(dev)
	outer, innerW := splitWorkers(opts.Workers, len(micros))
	err := par.ForEach(len(micros), outer, func(i int) error {
		m := micros[i]
		r, err := cache.Get(m.Name, m.Build, dev, asm.O2)
		if err != nil {
			return fmt.Errorf("core: micro %s: %w", m.Name, err)
		}
		if mp, err := profiler.Profile(r); err == nil {
			mu.Lock()
			microPhi[m.Name] = mp.Phi()
			mu.Unlock()
		}
		// The micro's own measured hidden exposure calibrates the
		// measured DUE correction (fit.MeasuredHiddenDUEBase).
		mh := faultinj.MeasuredHidden(r)
		mu.Lock()
		microHidden[m.Name] = mh.DUEExposure()
		mu.Unlock()
		ecc := m.Name != "RF"
		res, err := beam.Run(beam.Config{
			ECC: ecc, Trials: opts.MicroTrials, Workers: innerW,
			Seed: opts.Seed ^ hash(m.Name),
		}, r)
		if err != nil {
			return fmt.Errorf("core: micro beam %s: %w", m.Name, err)
		}
		mu.Lock()
		microBeam[m.Name] = res
		mu.Unlock()
		opts.Progress("micro beam %-6s on %s: SDC %.2f DUE %.2f a.u.",
			m.Name, dev.Name, res.SDCFIT.Rate, res.DUEFIT.Rate)

		if m.Name == "RF" {
			l := r.Instance().Launches[0]
			mu.Lock()
			rfExposedBytes = l.GridX * l.GridY * l.BlockThreads * l.Prog.NumRegs * 4
			microAVF[m.Name] = 1 // every stored bit is checked
			mu.Unlock()
			return nil
		}
		// Micro AVF via direct injection on the unit under test.
		tool := faultinj.NVBitFI
		if dev.Arch == device.Kepler {
			tool = faultinj.Sassifi
		}
		ir, err := cache.Get(m.Name, m.Build, dev, tool.OptLevel())
		if err != nil {
			return fmt.Errorf("core: micro %s at %s opt: %w", m.Name, tool, err)
		}
		avfRes, err := faultinj.RunWithRunner(faultinj.Config{
			Tool: tool, FaultsPerClass: opts.MicroAVFFaults,
			TotalFaults: opts.MicroAVFFaults * 3,
			Workers:     innerW, Seed: opts.Seed ^ hash(m.Name) ^ 0xa7f5a17,
		}, ir)
		if err == nil {
			mu.Lock()
			microAVF[m.Name] = avfRes.SDCAVF.P
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	units, err := fit.FromMicroResults(dev.Name, microBeam, microAVF, microPhi, microHidden, rfExposedBytes)
	if err != nil {
		return nil, nil, err
	}
	return microBeam, units, nil
}

// matrixKernel reports whether a workload is in the optimization-matrix
// population (the injection cross-validation set: the matrix gate
// compares static and dynamic orderings, which needs kernels where the
// two views agree on levels first).
func matrixKernel(name string) bool {
	for _, k := range faultinj.CrossValKernels {
		if k == name {
			return true
		}
	}
	return false
}

// injectable reports whether the tool can instrument the entry on the
// device (§III-D, §VI).
func injectable(dev *device.Device, tool faultinj.Tool, e suite.Entry) bool {
	if dev.Arch == device.Kepler && e.Library {
		return false // no injector supports proprietary libraries on Kepler
	}
	if tool == faultinj.NVBitFI && e.FP16 {
		return false // NVBitFI cannot inject into half-precision kernels
	}
	if tool == faultinj.Sassifi && e.FP16 {
		return false // Kepler has no FP16 anyway
	}
	return true
}

func hash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1 << 40
	}
	return 0
}

// sortedBeamKeys returns the map's keys ordered by (code, ECC off
// first), for deterministic iteration.
func sortedBeamKeys(m map[BeamKey]*beam.Result) []BeamKey {
	keys := make([]BeamKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Code != keys[j].Code {
			return keys[i].Code < keys[j].Code
		}
		return !keys[i].ECC
	})
	return keys
}

// Finalize computes the predictions and comparisons of §VII once the
// AVF proxies are resolvable. voltaAVF supplies the Volta NVBitFI
// results needed by Kepler's library codes (nil when finalizing Volta
// itself).
func (ds *DeviceStudy) Finalize(voltaAVF map[string]*faultinj.Result) error {
	entries := suite.ForDevice(ds.Dev)
	var tools []faultinj.Tool
	if ds.Dev.Arch == device.Kepler {
		tools = []faultinj.Tool{faultinj.Sassifi, faultinj.NVBitFI}
	} else {
		tools = []faultinj.Tool{faultinj.NVBitFI}
	}
	// Iterate beam configurations in sorted order: Comparisons is an
	// ordered artifact, and the DUE ratio accumulation below must not
	// pick up ULP noise from map iteration order.
	beamKeys := sortedBeamKeys(ds.Beam)
	for _, key := range beamKeys {
		beamRes := ds.Beam[key]
		e, err := suite.Find(entries, key.Code)
		if err != nil {
			return err
		}
		cp := ds.Profiles[key.Code]
		for _, tool := range tools {
			avf, ok := ds.resolveAVF(tool, e, voltaAVF)
			if !ok {
				continue
			}
			pred := fit.Predict(cp, avf, ds.Units, key.ECC, fit.Ablation{})
			// Fold in the hidden-resource DUE term (§VII-B) — the part
			// of the DUE rate the injector-fed AVFs cannot see — from the
			// golden run's residency telemetry.
			pred = pred.ApplyMeasuredDUE(ds.Units, ds.MeasuredHidden[key.Code])
			pk := PredKey{Code: key.Code, ECC: key.ECC, Tool: tool}
			ds.Predictions[pk] = pred
			ds.Comparisons = append(ds.Comparisons,
				fit.Compare(key.Code, key.ECC, tool, beamRes.SDCFIT.Rate, pred.SDCFIT))
		}
	}
	// DUE underestimation, averaged geometrically per ECC state over the
	// NVBitFI-based predictions — uncorrected (the paper's headline
	// number) and after the hidden-resource correction.
	for _, ecc := range []bool{false, true} {
		var ratios, measured []float64
		for _, key := range beamKeys {
			beamRes := ds.Beam[key]
			if key.ECC != ecc {
				continue
			}
			pred, ok := ds.Predictions[PredKey{Code: key.Code, ECC: ecc, Tool: faultinj.NVBitFI}]
			if !ok {
				continue
			}
			if pred.DUEFIT <= 0 || beamRes.DUEFIT.Rate <= 0 {
				continue
			}
			ratios = append(ratios, beamRes.DUEFIT.Rate/pred.DUEFIT)
			if pred.DUEFITCorrectedMeasured > 0 {
				measured = append(measured, beamRes.DUEFIT.Rate/pred.DUEFITCorrectedMeasured)
			}
		}
		if len(ratios) > 0 {
			ds.DUEUnderestimate[ecc] = stats.GeomMeanAbsSigned(ratios)
		}
		if len(measured) > 0 {
			ds.DUEMeasuredUnderestimate[ecc] = stats.GeomMeanAbsSigned(measured)
		}
	}
	return nil
}

// resolveAVF returns the AVF campaign for an entry under a tool,
// applying the paper's proxy substitutions.
func (ds *DeviceStudy) resolveAVF(tool faultinj.Tool, e suite.Entry, voltaAVF map[string]*faultinj.Result) (*faultinj.Result, bool) {
	if r, ok := ds.AVF[tool][e.Name]; ok {
		return r, true
	}
	// FP16 entries: same-device FP32 sibling (§VI).
	if e.FP16 && e.AVFProxy != "" {
		if r, ok := ds.AVF[tool][e.AVFProxy]; ok {
			return r, true
		}
	}
	// Kepler library entries: Volta NVBitFI proxy (§III-D). The paper
	// notes this applies to both injectors' predictions.
	if ds.Dev.Arch == device.Kepler && e.Library && voltaAVF != nil {
		proxy := e.AVFProxy
		if proxy == "" {
			proxy = e.Name
		}
		if r, ok := voltaAVF[proxy]; ok {
			return r, true
		}
	}
	return nil, false
}

// Run executes the full two-device study and resolves cross-device
// proxies: Volta first (its NVBitFI AVFs feed Kepler's library codes),
// then Kepler.
func Run(opts Options) (*Study, error) {
	volta, err := RunDevice(device.V100(), opts)
	if err != nil {
		return nil, err
	}
	if err := volta.Finalize(nil); err != nil {
		return nil, err
	}
	kepler, err := RunDevice(device.K40c(), opts)
	if err != nil {
		return nil, err
	}
	if err := kepler.Finalize(volta.AVF[faultinj.NVBitFI]); err != nil {
		return nil, err
	}
	return &Study{Kepler: kepler, Volta: volta}, nil
}
