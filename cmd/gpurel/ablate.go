package main

import (
	"fmt"

	"gpurel/internal/core"
	"gpurel/internal/faultinj"
	"gpurel/internal/fit"
	"gpurel/internal/kernels"
	"gpurel/internal/profiler"
	"gpurel/internal/report"
	"gpurel/internal/stats"
)

// ablateCmd quantifies what each term of the prediction
// model contributes by re-running the Figure-6 comparison for one code
// with individual terms disabled: Equation 4's phi factor, the
// full-utilization normalization, the §V-A de-masking, and Equation 3's
// memory term. Its inputs are the study's own campaigns, sized as repro
// sizes them (core.Calibrate, core.InjectCampaign with NVBitFI on Volta
// and SASSIFI on Kepler, core.BeamCampaign), so at repro's flags the
// full-model row is repro's Figure-6 prediction for that code, ECC
// state and injector. A code core.Injectable rules out is an error.
//
//	gpurel ablate -device kepler -code FMXM -ecc=false
//
// With -opt-matrix it instead ablates the compiler: the full
// optimization matrix (O0/O1/O2 plus unroll, copy-propagation, and
// spill knobs) is injected and statically explained for the chosen
// workload, and the sweep table is printed.
//
//	gpurel ablate -device kepler -code NW -opt-matrix
func ablateCmd(f *cmdFlags) func() error {
	f.device("kepler")
	f.code("FMXM")
	ecc := f.Bool("ecc", false, "ECC state")
	trials := f.trials(300)
	faults := f.faults(400)
	seed := f.seed(1)
	optMatrix := f.Bool("opt-matrix", false, "sweep the optimization matrix for the workload instead of ablating model terms")
	csv := f.csv()
	return func() error {
		dev, e := f.devs[0], f.entries[0]
		cache := kernels.NewCache(0)
		if *optMatrix {
			runners, err := core.MatrixRunners(dev, e, cache)
			if err != nil {
				return err
			}
			m, err := faultinj.RunOptMatrix(faultinj.OptMatrixConfig{
				Faults: *faults, Seed: *seed,
			}, runners)
			if err != nil {
				return err
			}
			fmt.Print(report.OptMatrixSweep([]*faultinj.OptMatrix{m}, *csv))
			if !m.OrderingAgrees() {
				_, d := m.OrderingAgreement(faultinj.OptOrderingEps)
				return fmt.Errorf("opt-matrix: static ordering contradicts injection on %s (%d discordant pairs)", e.Name, d)
			}
			return nil
		}

		// Gather the study's inputs from one cache: the code's injection
		// campaign (first, so a code no injector covers fails fast), the
		// calibration, and the code's beam campaign and profile.
		opts := studyOptions(*trials, *faults, 0, *seed)
		opts.Progress = f.progress
		avf, _, err := core.InjectCampaign(dev, core.Injectors(dev)[0], e, opts, 0, cache)
		if err != nil {
			return err
		}
		_, units, err := core.Calibrate(dev, opts, cache)
		if err != nil {
			return err
		}
		beamRes, runner, err := core.BeamCampaign(dev, e, *ecc, opts, 0, cache)
		if err != nil {
			return err
		}
		cp, err := profiler.Profile(runner)
		if err != nil {
			return err
		}

		fmt.Printf("ablation study: %s on %s, ECC %v (beam SDC FIT %.4f a.u.)\n\n",
			e.Name, dev.Name, *ecc, beamRes.SDCFIT.Rate)
		fmt.Printf("%-28s  %12s  %10s\n", "model variant", "predicted", "ratio")
		fmt.Printf("%-28s  %12s  %10s\n", "----------------------------", "------------", "----------")
		rows := []struct {
			name string
			ab   fit.Ablation
		}{
			{"full model (Eq. 1-4)", fit.Ablation{}},
			{"without phi (Eq. 4)", fit.Ablation{NoPhi: true}},
			{"without micro-phi norm", fit.Ablation{NoMicroPhiNorm: true}},
			{"without de-masking (§V-A)", fit.Ablation{NoDemask: true}},
			{"without memory term (Eq. 3)", fit.Ablation{NoMemTerm: true}},
		}
		for _, r := range rows {
			p := fit.Predict(cp, avf, units, *ecc, r.ab)
			fmt.Printf("%-28s  %12.4f  %+9.1fx\n",
				r.name, p.SDCFIT, stats.SignedRatio(beamRes.SDCFIT.Rate, p.SDCFIT))
		}
		fmt.Println("\nratio is beam/prediction (+x: beam higher; -x: prediction higher)")
		return nil
	}
}
