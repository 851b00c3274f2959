package main

import (
	"fmt"
	"os"

	"gpurel/internal/asm"
	"gpurel/internal/beam"
	"gpurel/internal/core"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/fit"
	"gpurel/internal/kernels"
	"gpurel/internal/profiler"
	"gpurel/internal/report"
	"gpurel/internal/stats"
	"gpurel/internal/suite"
)

// ablateCmd quantifies what each term of the prediction
// model contributes by re-running the Figure-6 comparison for one code
// with individual terms disabled: Equation 4's phi factor, the
// full-utilization normalization, the §V-A de-masking, and Equation 3's
// memory term. The unit FITs are the study's own (core.Calibrate, with
// -trials beam trials per micro-benchmark).
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
		if *optMatrix {
			runners, err := matrixRunners(dev, e)
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

		// Gather the inputs: the study's calibration, then the code's
		// profile, AVF and beam, all from one cache.
		cache := kernels.NewCache(0)
		_, units, err := core.Calibrate(dev, core.Options{
			MicroTrials: *trials, Seed: *seed,
			Progress: func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
		}, cache)
		if err != nil {
			return err
		}
		runner, err := cache.Get(e.Name, e.Build, dev, asm.O2)
		if err != nil {
			return err
		}
		cp, err := profiler.Profile(runner)
		if err != nil {
			return err
		}
		tool := faultinj.NVBitFI
		if dev.Arch == device.Kepler {
			tool = faultinj.Sassifi
		}
		avfRunner, err := cache.Get(e.Name, e.Build, dev, tool.OptLevel())
		if err != nil {
			return err
		}
		avf, err := faultinj.RunWithRunner(faultinj.Config{
			Tool: tool, FaultsPerClass: *faults / 4, TotalFaults: *faults, Seed: *seed,
		}, avfRunner)
		if err != nil {
			return err
		}
		beamRes, err := beam.Run(beam.Config{ECC: *ecc, Trials: *trials, Seed: *seed}, runner)
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

// matrixRunners builds e's runner at every optimization-matrix
// configuration, in asm.MatrixConfigs order.
func matrixRunners(dev *device.Device, e suite.Entry) ([]*kernels.Runner, error) {
	var runners []*kernels.Runner
	for _, opt := range asm.MatrixConfigs() {
		r, err := kernels.NewRunner(e.Name, e.Build, dev, opt)
		if err != nil {
			return nil, fmt.Errorf("matrix %s/%s at %s: %w", dev.Name, e.Name, opt, err)
		}
		runners = append(runners, r)
	}
	return runners, nil
}
