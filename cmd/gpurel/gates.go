package main

import (
	"fmt"
	"os"
	"strings"

	"gpurel/internal/asm"
	"gpurel/internal/beam"
	"gpurel/internal/core"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/kernels"
	"gpurel/internal/report"
	"gpurel/internal/suite"
)

// Gate is one static-vs-dynamic agreement check: a documented
// tolerance (a faultinj constant), the campaign size it is validated
// at, and the run that renders the agreement table and reports every
// workload outside the tolerance through gateRun.failf.
type Gate struct {
	Name      string
	Tolerance float64
	// Size is the campaign size: injected faults per workload, or beam
	// trials for the hidden gate.
	Size int
	Run  func(r *gateRun) (table string, err error)
}

// gateConfig carries the flags a gate run honors.
type gateConfig struct {
	devs   []*device.Device
	code   string // one workload instead of the gate's kernel list
	faults int    // -faults: campaign size override (0: the gate's own)
	seed   uint64
	csv    bool
}

// gateRun is one run of a gate under the flags.
type gateRun struct {
	*Gate
	gateConfig
	failed bool
}

// gates is the registry behind -gate, in the order -gate all runs them.
var gates = []Gate{
	{Name: "crossval", Tolerance: faultinj.CrossValTolerance, Size: 400, Run: runCrossValGate},
	{Name: "opt", Tolerance: faultinj.OptOrderingEps, Size: 400, Run: runOptGate},
	{Name: "twolevel", Tolerance: faultinj.TwoLevelTolerance, Size: 500, Run: runTwoLevelGate},
	{Name: "duemode", Tolerance: faultinj.DUEModeTolerance, Size: 400, Run: runDUEModeGate},
	{Name: "hidden", Tolerance: faultinj.MeasuredCrossValTolerance, Size: 2000, Run: runHiddenGate},
}

func gateNames() []string {
	names := make([]string, 0, len(gates)+1)
	for _, g := range gates {
		names = append(names, g.Name)
	}
	return append(names, "all")
}

// pickGates resolves the -gate argument.
func pickGates(name string) ([]Gate, error) {
	if name == "all" {
		return gates, nil
	}
	for _, g := range gates {
		if g.Name == name {
			return []Gate{g}, nil
		}
	}
	return nil, usageError{fmt.Errorf("unknown gate %q (valid: %s)", name, strings.Join(gateNames(), ", "))}
}

// runGates runs each gate and prints its table to stdout; it fails
// (exit status 1) when any gate reported a failure.
func runGates(gs []Gate, c gateConfig) error {
	var status error
	for i := range gs {
		r := &gateRun{Gate: &gs[i], gateConfig: c}
		table, err := r.Run(r)
		if err != nil {
			return err
		}
		if len(gs) > 1 {
			fmt.Printf("== gate %s\n", r.Name)
		}
		fmt.Print(table)
		if r.failed {
			status = exitStatus(1)
		}
	}
	return status
}

// failf reports a workload outside the gate's tolerance on stderr.
func (r *gateRun) failf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gate %s: %s\n", r.Name, fmt.Sprintf(format, args...))
	r.failed = true
}

// size is the campaign size of the run.
func (r *gateRun) size() int {
	if r.faults > 0 {
		return r.faults
	}
	return r.Size
}

// forEachWorkload calls fn for every (device, workload) pair a gate
// covers: the -code workload when set (parse has checked each device
// has it), else each of names the device's suite has. It stops at the
// first error.
func (c gateConfig) forEachWorkload(names []string, fn func(dev *device.Device, e suite.Entry) error) error {
	if c.code != "" {
		names = []string{c.code}
	}
	for _, dev := range c.devs {
		all := suite.ForDevice(dev)
		for _, name := range names {
			e, err := suite.Find(all, name)
			if err != nil {
				continue
			}
			if err := fn(dev, e); err != nil {
				return err
			}
		}
	}
	return nil
}

// nvbitfiCampaign builds e's runner at the NVBitFI pipeline and runs
// the gate's campaign on it; the gate computes its static side on the
// same runner.
func (r *gateRun) nvbitfiCampaign(dev *device.Device, e suite.Entry) (*kernels.Runner, *faultinj.Result, error) {
	runner, err := kernels.NewRunner(e.Name, e.Build, dev, faultinj.NVBitFI.OptLevel())
	if err != nil {
		return nil, nil, err
	}
	res, err := faultinj.RunWithRunner(faultinj.Config{
		Tool: faultinj.NVBitFI, TotalFaults: r.size(), Seed: r.seed,
	}, runner)
	return runner, res, err
}

// runCrossValGate compares each workload's bit-resolved static AVF
// against an NVBitFI campaign.
func runCrossValGate(r *gateRun) (string, error) {
	var cvs []*faultinj.CrossValidation
	// Value-masking-dominated workloads (see faultinj.CrossValKernels)
	// need -code.
	err := r.forEachWorkload(faultinj.CrossValKernels, func(dev *device.Device, e suite.Entry) error {
		runner, dyn, err := r.nvbitfiCampaign(dev, e)
		var cv *faultinj.CrossValidation
		if err == nil {
			cv, err = faultinj.CrossValidate(runner, dyn)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "skip %s on %s: %v\n", e.Name, dev.Name, err)
			return nil
		}
		cvs = append(cvs, cv)
		fmt.Fprintf(os.Stderr, "done %s on %s\n", e.Name, dev.Name)
		if !cv.Agrees() {
			r.failf("%s on %s outside ±%.2f (delta %+.3f)",
				cv.Name, cv.Device, r.Tolerance, cv.Delta())
		}
		return nil
	})
	return report.CrossValidation(cvs, r.csv) + "\n" + report.BitBandTable(cvs, r.csv), err
}

// runOptGate runs the optimization-matrix sweep: the static
// per-configuration AVF ordering must not contradict the injection
// campaign's on any matrix (no discordant pair at the tie width).
func runOptGate(r *gateRun) (string, error) {
	var ms []*faultinj.OptMatrix
	err := r.forEachWorkload(faultinj.CrossValKernels, func(dev *device.Device, e suite.Entry) error {
		runners, err := matrixRunners(dev, e)
		if err != nil {
			return err
		}
		m, err := faultinj.RunOptMatrix(faultinj.OptMatrixConfig{
			Faults: r.size(), Seed: r.seed,
		}, runners)
		if err != nil {
			return err
		}
		ms = append(ms, m)
		conc, disc := m.OrderingAgreement(r.Tolerance)
		fmt.Fprintf(os.Stderr, "done %s on %s: %d concordant, %d discordant\n",
			e.Name, dev.Name, conc, disc)
		if !m.OrderingAgrees() {
			r.failf("%s on %s: static ordering contradicts injection (%d discordant pairs at eps %.2f)",
				m.Name, m.Device, disc, r.Tolerance)
		}
		return nil
	})
	return report.OptMatrixSweep(ms, r.csv), err
}

// runTwoLevelGate runs both the exhaustive NVBitFI campaign and the
// two-level estimate on a shared runner, and gates on the estimator's
// two promises: the SDC AVF within the tolerance of the exhaustive
// result, at five or more times fewer simulations.
func runTwoLevelGate(r *gateRun) (string, error) {
	studies := make(map[*device.Device]*core.DeviceStudy)
	err := r.forEachWorkload(faultinj.CrossValKernels, func(dev *device.Device, e suite.Entry) error {
		study := studies[dev]
		if study == nil {
			study = &core.DeviceStudy{
				Dev:      dev,
				AVF:      map[faultinj.Tool]map[string]*faultinj.Result{faultinj.NVBitFI: {}},
				TwoLevel: map[string]*faultinj.TwoLevelResult{},
			}
			studies[dev] = study
		}
		runner, exact, err := r.nvbitfiCampaign(dev, e)
		if err != nil {
			return err
		}
		tl, err := faultinj.TwoLevelEstimateWithRunner(faultinj.TwoLevelConfig{
			Tool: faultinj.NVBitFI, Seed: r.seed,
		}, runner)
		if err != nil {
			return err
		}
		study.AVF[faultinj.NVBitFI][e.Name] = exact
		study.TwoLevel[e.Name] = tl
		fmt.Fprintf(os.Stderr, "done %s on %s: exact %.3f, two-level %.3f (%d vs %d trials)\n",
			e.Name, dev.Name, exact.SDCAVF.P, tl.SDCAVF, exact.Injected, tl.Trials)
		if !tl.Agrees(exact) {
			r.failf("%s on %s outside ±%.2f (delta %+.3f)",
				e.Name, dev.Name, r.Tolerance, tl.Delta(exact))
		}
		if tl.Speedup(exact) < 5 {
			r.failf("%s on %s speedup %.1fx below 5x (%d vs %d trials)",
				e.Name, dev.Name, tl.Speedup(exact), tl.Trials, exact.Injected)
		}
		return nil
	})
	var table strings.Builder
	for _, dev := range r.devs {
		if study := studies[dev]; study != nil {
			table.WriteString(report.TwoLevelTable(study, r.csv))
			table.WriteString("\n")
		}
	}
	return table.String(), err
}

// runDUEModeGate compares the static DUE-mode shares against an NVBitFI
// campaign's typed-DUE ledger; every measurable workload's L-infinity
// delta must sit inside the tolerance.
func runDUEModeGate(r *gateRun) (string, error) {
	var cvs []*faultinj.DUEModeCrossVal
	err := r.forEachWorkload(faultinj.CrossValKernels, func(dev *device.Device, e suite.Entry) error {
		runner, dyn, err := r.nvbitfiCampaign(dev, e)
		var cv *faultinj.DUEModeCrossVal
		if err == nil {
			cv, err = faultinj.PairDUEModes(runner, dyn)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "skip %s on %s: %v\n", e.Name, dev.Name, err)
			return nil
		}
		cvs = append(cvs, cv)
		fmt.Fprintf(os.Stderr, "done %s on %s: delta %.3f over %d typed DUEs\n",
			e.Name, dev.Name, cv.Delta(), cv.DynamicDUEs)
		if !cv.Agrees() {
			r.failf("%s on %s outside %.2f (L-inf delta %.3f over %d typed DUEs)",
				cv.Name, cv.Device, r.Tolerance, cv.Delta(), cv.DynamicDUEs)
		}
		return nil
	})
	return report.DUEModeCrossValidation(cvs, r.csv), err
}

// runHiddenGate compares the measured-residency hidden-resource DUE
// model against a beam campaign's hidden strike ledger. ECC stays on so
// storage strikes short-circuit and the campaign cost is dominated by
// the strikes of interest.
func runHiddenGate(r *gateRun) (string, error) {
	var hcvs []*faultinj.HiddenCrossValidation
	bcfg := beam.Config{ECC: true, Trials: r.size(), Seed: r.seed}
	err := r.forEachWorkload(faultinj.HiddenCrossValKernels, func(dev *device.Device, e suite.Entry) error {
		runner, err := kernels.NewRunner(e.Name, e.Build, dev, asm.O2)
		var hcv *faultinj.HiddenCrossValidation
		if err == nil {
			hcv, err = faultinj.CrossValidateHidden(bcfg, runner)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "skip hidden %s on %s: %v\n", e.Name, dev.Name, err)
			return nil
		}
		hcvs = append(hcvs, hcv)
		fmt.Fprintf(os.Stderr, "done hidden %s on %s\n", e.Name, dev.Name)
		if !hcv.MeasuredAgrees() {
			r.failf("%s on %s outside ±%.2f (delta %+.3f)",
				hcv.Name, hcv.Device, r.Tolerance, hcv.MeasuredDelta())
		}
		return nil
	})
	return report.HiddenCrossValidation(hcvs, r.csv), err
}
