package main

import (
	"fmt"
	"time"

	"gpurel/internal/beam"
	"gpurel/internal/core"
	"gpurel/internal/kernels"
	"gpurel/internal/microbench"
	"gpurel/internal/pprofutil"
	"gpurel/internal/report"
	"gpurel/internal/suite"
)

// beamCmd runs the study's simulated neutron-beam campaigns
// (core.MicroBeamCampaign, core.BeamCampaign); at repro's -trials and
// -seed it prints repro's rows:
//
//	gpurel beam -fig3                 micro-benchmark FIT rates (Figure 3)
//	gpurel beam -fig5                 workload FIT rates, ECC on/off (Figure 5)
//	gpurel beam -code FMXM -ecc=false one specific configuration
//
// Both figures normalize to the lowest micro-benchmark DUE rate, so
// -fig5 runs the micro campaigns too. Trials scale the statistics; the
// defaults keep a full figure under a few minutes of CPU time.
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

		opts := studyOptions(*trials, 0, *workers, *seed)
		cache := kernels.NewCache(0)
		ds := &core.DeviceStudy{Dev: dev, MicroBeam: map[string]*beam.Result{}, Beam: map[core.BeamKey]*beam.Result{}}
		start := time.Now()
		totalTrials := 0
		// done counts a finished campaign's trials and reports its replay statistics.
		done := func(label string, res *beam.Result, r *kernels.Runner) {
			totalTrials += res.Trials
			restores, rejoins := r.ReplayStats()
			f.progress("done %s (sub-launch restores %d, rejoins %d; %s)", label, restores, rejoins, r.LogStats())
		}
		if !*fig3 && !*fig5 {
			res, r, err := core.BeamCampaign(dev, f.entries[0], *ecc, opts, *workers, cache)
			if err != nil {
				return err
			}
			done(res.Name, res, r)
			f.summary(totalTrials, "trials", start)
			fmt.Printf("%s on %s, ECC %v: SDC FIT %.4f [%.4f, %.4f] a.u. (%d events), DUE FIT %.4f (%d events), %d trials\n",
				res.Name, res.Device, res.ECC,
				res.SDCFIT.Rate, res.SDCFIT.CI.Lower, res.SDCFIT.CI.Upper, res.SDC,
				res.DUEFIT.Rate, res.DUE, res.Trials)
			for src := beam.Source(0); src < beam.SrcCount; src++ {
				s := res.BySource[src]
				fmt.Printf("  %-16s strikes %4d  SDC %3d  DUE %3d\n", src, s.Strikes, s.SDC, s.DUE)
			}
			return nil
		}
		for _, m := range microbench.Catalog(dev) {
			res, r, err := core.MicroBeamCampaign(dev, m, opts, *workers, cache)
			if err != nil {
				return err
			}
			ds.MicroBeam[m.Name] = res
			done(m.Name, res, r)
		}
		render := report.Figure3
		if !*fig3 {
			entries := suite.ForDevice(dev)
			for _, key := range core.BeamConfigs(dev, entries) {
				e, err := suite.Find(entries, key.Code)
				if err != nil {
					return err
				}
				res, r, err := core.BeamCampaign(dev, e, key.ECC, opts, *workers, cache)
				if err != nil {
					return err
				}
				ds.Beam[key] = res
				done(fmt.Sprintf("%s ecc=%v", key.Code, key.ECC), res, r)
			}
			render = report.Figure5
		}
		f.summary(totalTrials, "trials", start)
		fmt.Print(render(ds, *csv))
		return nil
	}
}
