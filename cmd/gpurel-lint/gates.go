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
// workload outside the tolerance.
type Gate struct {
	Name      string
	Tolerance float64
	// Size is the campaign size: injected faults per workload, or beam
	// trials for the hidden gate.
	Size int
	Run  func(g *Gate, c gateConfig) (table string, failures []string)
}

// gateConfig carries the flags a gate run honors.
type gateConfig struct {
	devs []*device.Device
	code string // one workload instead of the gate's kernel list
	size int    // campaign size override (0: the gate's own)
	seed uint64
	csv  bool
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
	return nil, fmt.Errorf("unknown gate %q (valid: %s)", name, strings.Join(gateNames(), ", "))
}

// runGates runs each gate, prints its table to stdout and its failures
// to stderr, and returns the exit status: 1 when any gate failed.
func runGates(gs []Gate, c gateConfig) int {
	status := 0
	for i := range gs {
		g := &gs[i]
		table, failures := g.Run(g, c)
		if len(gs) > 1 {
			fmt.Printf("== gate %s\n", g.Name)
		}
		fmt.Print(table)
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "gate %s: %s\n", g.Name, f)
		}
		if len(failures) > 0 {
			status = 1
		}
	}
	return status
}

// sizeOf is the campaign size of one run of g.
func (c gateConfig) sizeOf(g *Gate) int {
	if c.size > 0 {
		return c.size
	}
	return g.Size
}

// forEachWorkload calls fn for every (device, workload) pair a gate
// covers: the -code workload when set, else each of names the device's
// suite has.
func (c gateConfig) forEachWorkload(names []string, fn func(dev *device.Device, e suite.Entry)) {
	if c.code != "" {
		names = []string{c.code}
	}
	for _, dev := range c.devs {
		all := suite.ForDevice(dev)
		for _, name := range names {
			e, err := suite.Find(all, name)
			if err != nil {
				if c.code != "" {
					fail(err)
				}
				continue
			}
			fn(dev, e)
		}
	}
}

// runCrossValGate compares each workload's bit-resolved static AVF
// against an NVBitFI campaign.
func runCrossValGate(g *Gate, c gateConfig) (string, []string) {
	var cvs []*faultinj.CrossValidation
	var failures []string
	cfg := faultinj.Config{Tool: faultinj.NVBitFI, TotalFaults: c.sizeOf(g), Seed: c.seed}
	// Value-masking-dominated workloads (see faultinj.CrossValKernels)
	// need -code.
	c.forEachWorkload(faultinj.CrossValKernels, func(dev *device.Device, e suite.Entry) {
		cv, err := faultinj.CrossValidate(cfg, e.Name, e.Build, dev)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skip %s on %s: %v\n", e.Name, dev.Name, err)
			return
		}
		cvs = append(cvs, cv)
		fmt.Fprintf(os.Stderr, "done %s on %s\n", e.Name, dev.Name)
		if !cv.Agrees() {
			failures = append(failures, fmt.Sprintf("%s on %s outside ±%.2f (delta %+.3f)",
				cv.Name, cv.Device, g.Tolerance, cv.Delta()))
		}
	})
	return report.CrossValidation(cvs, c.csv) + "\n" + report.BitBandTable(cvs, c.csv), failures
}

// runOptGate runs the optimization-matrix sweep: the static
// per-configuration AVF ordering must not contradict the injection
// campaign's on any matrix (no discordant pair at the tie width).
func runOptGate(g *Gate, c gateConfig) (string, []string) {
	var ms []*faultinj.OptMatrix
	var failures []string
	c.forEachWorkload(faultinj.CrossValKernels, func(dev *device.Device, e suite.Entry) {
		m, err := faultinj.RunOptMatrix(faultinj.OptMatrixConfig{
			Faults: c.sizeOf(g), Seed: c.seed,
		}, e.Name, e.Build, dev, nil)
		if err != nil {
			fail(err)
		}
		ms = append(ms, m)
		conc, disc := m.OrderingAgreement(g.Tolerance)
		fmt.Fprintf(os.Stderr, "done %s on %s: %d concordant, %d discordant\n",
			e.Name, dev.Name, conc, disc)
		if !m.OrderingAgrees() {
			failures = append(failures, fmt.Sprintf("%s on %s: static ordering contradicts injection (%d discordant pairs at eps %.2f)",
				m.Name, m.Device, disc, g.Tolerance))
		}
	})
	return report.OptMatrixSweep(ms, c.csv), failures
}

// runTwoLevelGate runs both the exhaustive NVBitFI campaign and the
// two-level estimate on a shared runner, and gates on the estimator's
// two promises: the SDC AVF within the tolerance of the exhaustive
// result, at five or more times fewer simulations.
func runTwoLevelGate(g *Gate, c gateConfig) (string, []string) {
	var failures []string
	studies := make(map[*device.Device]*core.DeviceStudy)
	c.forEachWorkload(faultinj.CrossValKernels, func(dev *device.Device, e suite.Entry) {
		study := studies[dev]
		if study == nil {
			study = &core.DeviceStudy{
				Dev:      dev,
				AVF:      map[faultinj.Tool]map[string]*faultinj.Result{faultinj.NVBitFI: {}},
				TwoLevel: map[string]*faultinj.TwoLevelResult{},
			}
			studies[dev] = study
		}
		runner, err := kernels.NewRunner(e.Name, e.Build, dev, faultinj.NVBitFI.OptLevel())
		if err != nil {
			fail(err)
		}
		exact, err := faultinj.RunWithRunner(faultinj.Config{
			Tool: faultinj.NVBitFI, TotalFaults: c.sizeOf(g), Seed: c.seed,
		}, runner)
		if err != nil {
			fail(err)
		}
		tl, err := faultinj.TwoLevelEstimateWithRunner(faultinj.TwoLevelConfig{
			Tool: faultinj.NVBitFI, Seed: c.seed,
		}, runner)
		if err != nil {
			fail(err)
		}
		study.AVF[faultinj.NVBitFI][e.Name] = exact
		study.TwoLevel[e.Name] = tl
		fmt.Fprintf(os.Stderr, "done %s on %s: exact %.3f, two-level %.3f (%d vs %d trials)\n",
			e.Name, dev.Name, exact.SDCAVF.P, tl.SDCAVF, exact.Injected, tl.Trials)
		if !tl.Agrees(exact) {
			failures = append(failures, fmt.Sprintf("%s on %s outside ±%.2f (delta %+.3f)",
				e.Name, dev.Name, g.Tolerance, tl.Delta(exact)))
		}
		if tl.Speedup(exact) < 5 {
			failures = append(failures, fmt.Sprintf("%s on %s speedup %.1fx below 5x (%d vs %d trials)",
				e.Name, dev.Name, tl.Speedup(exact), tl.Trials, exact.Injected))
		}
	})
	var table strings.Builder
	for _, dev := range c.devs {
		if study := studies[dev]; study != nil {
			table.WriteString(report.TwoLevelTable(study, c.csv))
			table.WriteString("\n")
		}
	}
	return table.String(), failures
}

// runDUEModeGate compares the static DUE-mode shares against an NVBitFI
// campaign's typed-DUE ledger; every measurable workload's L-infinity
// delta must sit inside the tolerance.
func runDUEModeGate(g *Gate, c gateConfig) (string, []string) {
	var cvs []*faultinj.DUEModeCrossVal
	var failures []string
	cfg := faultinj.Config{Tool: faultinj.NVBitFI, TotalFaults: c.sizeOf(g), Seed: c.seed}
	c.forEachWorkload(faultinj.CrossValKernels, func(dev *device.Device, e suite.Entry) {
		cv, err := faultinj.CrossValidateDUEModes(cfg, e.Name, e.Build, dev)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skip %s on %s: %v\n", e.Name, dev.Name, err)
			return
		}
		cvs = append(cvs, cv)
		fmt.Fprintf(os.Stderr, "done %s on %s: delta %.3f over %d typed DUEs\n",
			e.Name, dev.Name, cv.Delta(), cv.DynamicDUEs)
		if !cv.Agrees() {
			failures = append(failures, fmt.Sprintf("%s on %s outside %.2f (L-inf delta %.3f over %d typed DUEs)",
				cv.Name, cv.Device, g.Tolerance, cv.Delta(), cv.DynamicDUEs))
		}
	})
	return report.DUEModeCrossValidation(cvs, c.csv), failures
}

// runHiddenGate compares the measured-residency hidden-resource DUE
// model against a beam campaign's hidden strike ledger. ECC stays on so
// storage strikes short-circuit and the campaign cost is dominated by
// the strikes of interest.
func runHiddenGate(g *Gate, c gateConfig) (string, []string) {
	var hcvs []*faultinj.HiddenCrossValidation
	var failures []string
	bcfg := beam.Config{ECC: true, Trials: c.sizeOf(g), Seed: c.seed}
	c.forEachWorkload(faultinj.HiddenCrossValKernels, func(dev *device.Device, e suite.Entry) {
		r, err := kernels.NewRunner(e.Name, e.Build, dev, asm.O2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skip hidden %s on %s: %v\n", e.Name, dev.Name, err)
			return
		}
		hcv, err := faultinj.CrossValidateHidden(bcfg, r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skip hidden %s on %s: %v\n", e.Name, dev.Name, err)
			return
		}
		hcvs = append(hcvs, hcv)
		fmt.Fprintf(os.Stderr, "done hidden %s on %s\n", e.Name, dev.Name)
		if !hcv.MeasuredAgrees() {
			failures = append(failures, fmt.Sprintf("%s on %s outside ±%.2f (delta %+.3f)",
				hcv.Name, hcv.Device, g.Tolerance, hcv.MeasuredDelta()))
		}
	})
	return report.HiddenCrossValidation(hcvs, c.csv), failures
}
