package main

import (
	"fmt"
	"os"
	"time"

	"gpurel/internal/asm"
	"gpurel/internal/beam"
	"gpurel/internal/core"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/microbench"
	"gpurel/internal/pprofutil"
	"gpurel/internal/report"
	"gpurel/internal/suite"
)

// beamCmd runs simulated neutron-beam campaigns:
//
//	gpurel beam -fig3                 micro-benchmark FIT rates (Figure 3)
//	gpurel beam -fig5                 workload FIT rates, ECC on/off (Figure 5)
//	gpurel beam -code FMXM -ecc=false one specific configuration
//
// Trials scale the statistics; the defaults keep a full figure under a
// few minutes of CPU time.
func beamCmd(f *cmdFlags) func() error {
	f.device("kepler")
	fig3 := f.Bool("fig3", false, "run the micro-benchmark campaigns (Figure 3)")
	fig5 := f.Bool("fig5", false, "run the workload campaigns (Figure 5)")
	f.code("")
	ecc := f.Bool("ecc", true, "ECC state for -code")
	trials := f.trials(350)
	workers := f.workers()
	seed := f.seed(1)
	csv := f.csv()
	pprofutil.AddFlags(f.FlagSet)
	return func() error {
		dev := f.devs[0]
		if !*fig3 && !*fig5 && len(f.entries) == 0 {
			return usageError{fmt.Errorf("pick one of -fig3, -fig5, or -code NAME")}
		}
		if err := pprofutil.Start(); err != nil {
			return err
		}
		defer pprofutil.Stop()

		ds := &core.DeviceStudy{
			Dev:       dev,
			MicroBeam: map[string]*beam.Result{},
			Beam:      map[core.BeamKey]*beam.Result{},
		}
		start := time.Now()
		totalTrials := 0
		// campaign runs one beam campaign on a fresh runner.
		campaign := func(name string, build kernels.Builder, ecc bool) (*beam.Result, *kernels.Runner, error) {
			r, err := kernels.NewRunner(name, build, dev, asm.O2)
			if err != nil {
				return nil, nil, fmt.Errorf("beam %s: %w", name, err)
			}
			res, err := beam.Run(beam.Config{ECC: ecc, Trials: *trials, Workers: *workers, Seed: *seed}, r)
			if err != nil {
				return nil, nil, fmt.Errorf("beam %s: %w", name, err)
			}
			totalTrials += res.Trials
			return res, r, nil
		}
		switch {
		case *fig3:
			for _, m := range microbench.Catalog(dev) {
				res, r, err := campaign(m.Name, m.Build, m.Name != "RF")
				if err != nil {
					return err
				}
				ds.MicroBeam[m.Name] = res
				restores, rejoins := r.ReplayStats()
				fmt.Fprintf(os.Stderr, "done %s (sub-launch restores %d, rejoins %d; %s)\n",
					m.Name, restores, rejoins, r.LogStats())
			}
			summary(totalTrials, "trials", start)
			fmt.Print(report.Figure3(ds, *csv))
		case *fig5:
			entries := suite.ForDevice(dev)
			for _, key := range core.BeamConfigs(dev, entries) {
				e, err := suite.Find(entries, key.Code)
				if err != nil {
					return err
				}
				res, r, err := campaign(e.Name, e.Build, key.ECC)
				if err != nil {
					return err
				}
				ds.Beam[key] = res
				restores, rejoins := r.ReplayStats()
				fmt.Fprintf(os.Stderr, "done %s ecc=%v (sub-launch restores %d, rejoins %d; %s)\n",
					key.Code, key.ECC, restores, rejoins, r.LogStats())
			}
			// Figure 5 normalizes against the micro floor; run the cheapest
			// reference micro for the normalization constant.
			refRes, _, err := campaign("FADD", microbench.ArithBuilder(refOp(dev)), true)
			if err != nil {
				return err
			}
			ds.MicroBeam["REF"] = refRes
			summary(totalTrials, "trials", start)
			fmt.Print(report.Figure5(ds, *csv))
		default:
			res, r, err := campaign(f.entries[0].Name, f.entries[0].Build, *ecc)
			if err != nil {
				return err
			}
			summary(res.Trials, "trials", start)
			restores, rejoins := r.ReplayStats()
			fmt.Fprintf(os.Stderr, "sub-launch replay: %d restores, %d rejoins; %s\n", restores, rejoins, r.LogStats())
			fmt.Printf("%s on %s, ECC %v: SDC FIT %.4f [%.4f, %.4f] a.u. (%d events), DUE FIT %.4f (%d events), %d trials\n",
				res.Name, res.Device, res.ECC,
				res.SDCFIT.Rate, res.SDCFIT.CI.Lower, res.SDCFIT.CI.Upper, res.SDC,
				res.DUEFIT.Rate, res.DUE, res.Trials)
			for src := beam.Source(0); src < beam.SrcCount; src++ {
				s := res.BySource[src]
				fmt.Printf("  %-16s strikes %4d  SDC %3d  DUE %3d\n", src, s.Strikes, s.SDC, s.DUE)
			}
		}
		return nil
	}
}

// summary prints the wall-clock/throughput line every beam and
// injection campaign ends with: n trials (or faults) since start.
func summary(n int, unit string, start time.Time) {
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "campaign total: %d %s in %s (%.0f %s/s)\n",
		n, unit, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(), unit)
}

// refOp is the normalization micro-benchmark of Figure 5: FADD on
// Kepler, HFMA on Volta (the devices' lowest DUE micros in the paper).
func refOp(dev *device.Device) isa.Op {
	if dev.Arch == device.Kepler {
		return isa.OpFADD
	}
	return isa.OpHFMA
}
