package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"gpurel/internal/analysis"
	"gpurel/internal/isa"
	"gpurel/internal/microbench"
	"gpurel/internal/suite"
)

type jsonFinding struct {
	Severity string `json:"severity"`
	Kind     string `json:"kind"`
	Instr    int    `json:"instr"`
	Msg      string `json:"msg"`
}

type progReport struct {
	Device   string  `json:"device"`
	Workload string  `json:"workload"`
	Program  string  `json:"program"`
	Opt      string  `json:"opt"`
	Sites    int     `json:"sites"`
	SDC      float64 `json:"static_sdc"`
	DUE      float64 `json:"static_due"`
	Dead     float64 `json:"dead_fraction"`

	Errors   []jsonFinding `json:"errors"`
	Warnings []jsonFinding `json:"warnings"`
}

// lintCmd runs the static dataflow analyzer over the built-in kernels
// and micro-benchmarks: a lint gate for the SASS-like IR (dead stores,
// use-before-def, unreachable blocks, SSY hazards) and an
// injection-free static AVF estimator, cross-validatable against the
// fault injectors.
//
//	gpurel lint                                 lint everything, both pipelines
//	gpurel lint -device kepler -code FMXM -v    one workload, show warnings
//	gpurel lint -json                           machine-readable report
//	gpurel lint -selftest                       prove the detectors fire
//	gpurel lint -gate crossval                  static vs injection AVF gate (CI)
//	gpurel lint -gate all                       every agreement gate (see gates.go)
//	gpurel lint -gate duemode -code FMXM -faults 100
//	                                            one workload, smaller campaign
//
// It fails (exit status 1) when any Error-severity finding exists
// (warnings do not gate) or any -gate workload leaves its tolerance.
func lintCmd(f *cmdFlags) func() error {
	f.device("all")
	f.opt("both")
	f.code("")
	jsonOut := f.Bool("json", false, "emit the report as JSON")
	verbose := f.Bool("v", false, "list warnings (errors are always listed)")
	selftest := f.Bool("selftest", false, "run the detectors on seeded-defect fixtures and exit")
	gate := f.String("gate", "", "run an agreement gate and fail on any out-of-tolerance workload: "+strings.Join(gateNames(), ", "))
	faults := f.faults(0)
	seed := f.seed(7)
	csv := f.csv()
	return func() error {
		if *selftest {
			return runSelftest()
		}
		if *gate != "" {
			gs, err := pickGates(*gate)
			if err != nil {
				return err
			}
			return runGates(gs, gateConfig{devs: f.devs, code: *f.codeName, faults: *faults, seed: *seed, csv: *csv, progress: f.progress})
		}

		var reports []progReport
		for i, dev := range f.devs {
			entries := suite.ForDevice(dev)
			if len(f.entries) > 0 {
				entries = f.entries[i : i+1]
			}
			for _, opt := range f.opts {
				for _, e := range entries {
					inst, err := e.Build(dev, opt)
					if err != nil {
						return fmt.Errorf("building %s on %s: %w", e.Name, dev.Name, err)
					}
					seen := map[string]bool{}
					for _, l := range inst.Launches {
						if seen[l.Prog.Name] {
							continue
						}
						seen[l.Prog.Name] = true
						reports = append(reports, analyzeProg(dev.Name, e.Name, opt.String(), l.Prog))
					}
				}
				if len(f.entries) == 0 {
					for _, m := range microbench.Catalog(dev) {
						inst, err := m.Build(dev, opt)
						if err != nil {
							return fmt.Errorf("building micro %s on %s: %w", m.Name, dev.Name, err)
						}
						for _, l := range inst.Launches {
							reports = append(reports, analyzeProg(dev.Name, "micro:"+m.Name, opt.String(), l.Prog))
						}
					}
				}
			}
		}

		errorCount := 0
		for i := range reports {
			errorCount += len(reports[i].Errors)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(reports); err != nil {
				return err
			}
		} else {
			printText(reports, *verbose)
		}
		if errorCount > 0 {
			return exitStatus(1)
		}
		return nil
	}
}

func analyzeProg(dev, workload, opt string, p *isa.Program) progReport {
	r := analysis.Analyze(p)
	est := r.Estimate(nil, nil)
	pr := progReport{
		Device: dev, Workload: workload, Program: p.Name, Opt: opt,
		Sites: est.Sites, SDC: est.SDC, DUE: est.DUE, Dead: est.DeadFraction,
		Errors:   []jsonFinding{},
		Warnings: []jsonFinding{},
	}
	for _, f := range r.Errors() {
		pr.Errors = append(pr.Errors, jsonFinding{f.Sev.String(), f.Kind, f.Instr, f.Msg})
	}
	for _, f := range r.Warnings() {
		pr.Warnings = append(pr.Warnings, jsonFinding{f.Sev.String(), f.Kind, f.Instr, f.Msg})
	}
	return pr
}

func printText(reports []progReport, verbose bool) {
	warnTotal, errTotal := 0, 0
	for _, pr := range reports {
		fmt.Printf("%-7s %-8s %-18s %-16s sites=%-3d sdc=%.3f due=%.3f dead=%.3f warn=%d err=%d\n",
			pr.Device, pr.Opt, pr.Workload, pr.Program,
			pr.Sites, pr.SDC, pr.DUE, pr.Dead, len(pr.Warnings), len(pr.Errors))
		for _, f := range pr.Errors {
			fmt.Printf("  error[%s] /*%04d*/ %s\n", f.Kind, f.Instr, f.Msg)
		}
		if verbose {
			for _, f := range pr.Warnings {
				fmt.Printf("  warn[%s] /*%04d*/ %s\n", f.Kind, f.Instr, f.Msg)
			}
		}
		warnTotal += len(pr.Warnings)
		errTotal += len(pr.Errors)
	}
	fmt.Printf("%d programs, %d errors, %d warnings\n", len(reports), errTotal, warnTotal)
}

// runSelftest seeds one program with a dead store and one with a
// use-before-def read, and verifies the analyzer flags exactly those.
// These fixtures are hand-assembled: the Builder's own verify gate
// would refuse to emit some of them.
func runSelftest() error {
	mk := func(op isa.Op, dst isa.Reg, srcs ...isa.Reg) isa.Instr {
		in := isa.Instr{Op: op, Pred: isa.PT, DstP: isa.PT, Dst: dst,
			Srcs: [3]isa.Operand{isa.R(isa.RZ), isa.R(isa.RZ), isa.R(isa.RZ)}}
		for i, s := range srcs {
			in.Srcs[i] = isa.R(s)
		}
		return in
	}
	stg := mk(isa.OpSTG, isa.RZ, 4)
	stg.Srcs[1] = isa.Imm(0)
	stg.Srcs[2] = isa.R(2)
	seeded := &isa.Program{Name: "selftest", Instrs: []isa.Instr{
		mk(isa.OpMOV32I, 0),
		mk(isa.OpIMUL, 1, 0, 0), // dead store: R1 never read
		mk(isa.OpIADD, 2, 3, 0), // use-before-def: R3 never written
		mk(isa.OpMOV32I, 4),     // address
		stg,
		mk(isa.OpEXIT, isa.RZ),
	}}
	r := analysis.Analyze(seeded)
	ok := true
	expect := func(found bool, what string) {
		if found {
			fmt.Printf("selftest: detected %s\n", what)
		} else {
			fmt.Printf("selftest: FAILED to detect %s\n", what)
			ok = false
		}
	}
	hasKind := func(fs []analysis.Finding, kind string) bool {
		for _, f := range fs {
			if f.Kind == kind {
				return true
			}
		}
		return false
	}
	expect(hasKind(r.Warnings(), analysis.KindDeadStore), "the seeded dead store")
	expect(hasKind(r.Errors(), analysis.KindUseBeforeDef), "the seeded use-before-def")
	if !ok {
		return exitStatus(1)
	}
	fmt.Println("selftest: ok")
	return nil
}
