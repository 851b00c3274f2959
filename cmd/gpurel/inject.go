package main

import (
	"fmt"
	"sort"
	"time"

	"gpurel/internal/core"
	"gpurel/internal/faultinj"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/pprofutil"
	"gpurel/internal/report"
	"gpurel/internal/suite"
)

// injectCmd runs the study's architecture-level fault-injection
// campaigns in the style of SASSIFI and NVBitFI (core.InjectCampaign)
// and reports the AVFs of Figure 4; at repro's -faults and -seed it
// prints repro's rows. Without -code it covers every workload
// core.Injectable admits; an explicit -code it rules out is an error.
//
//	gpurel inject -device kepler -tool sassifi            all codes
//	gpurel inject -device volta -code FGEMM -faults 2000  one code
func injectCmd(f *cmdFlags) func() error {
	f.device("kepler")
	toolName := f.String("tool", "nvbitfi", "injector: sassifi or nvbitfi")
	f.code("")
	faults := f.faults(500)
	workers := f.workers()
	seed := f.seed(1)
	csv := f.csv()
	pprofutil.AddFlags(f.FlagSet)
	return func() error {
		tool, err := faultinj.ParseTool(*toolName)
		if err != nil {
			return usageError{err}
		}
		dev, entries := f.devs[0], f.entries
		if len(entries) == 0 {
			entries = suite.ForDevice(dev)
		}
		if err := pprofutil.Start(); err != nil {
			return err
		}
		defer pprofutil.Stop()

		opts := studyOptions(0, *faults, *workers, *seed)
		cache := kernels.NewCache(0)
		ds := &core.DeviceStudy{Dev: dev, AVF: map[faultinj.Tool]map[string]*faultinj.Result{tool: {}}}
		start := time.Now()
		totalFaults := 0
		var skipped error
		for _, e := range entries {
			if err := core.Injectable(dev, tool, e); err != nil && len(f.entries) == 0 {
				f.progress("skip %s: %v", e.Name, err)
				skipped = err
				continue
			}
			codeStart := time.Now()
			res, runner, err := core.InjectCampaign(dev, tool, e, opts, *workers, cache)
			if err != nil {
				return err
			}
			ds.AVF[tool][e.Name] = res
			totalFaults += res.Injected
			el := time.Since(codeStart)
			restores, rejoins := runner.ReplayStats()
			f.progress("done %s: %d faults in %s (%.0f faults/s; sub-launch restores %d, rejoins %d; %s)",
				e.Name, res.Injected, el.Round(time.Millisecond), float64(res.Injected)/el.Seconds(),
				restores, rejoins, runner.LogStats())
		}
		if len(ds.AVF[tool]) == 0 {
			return skipped
		}
		f.summary(totalFaults, "faults", start)
		fmt.Print(report.Figure4(ds, *csv))

		// Per-class detail for single-code runs.
		if len(f.entries) == 1 {
			res := ds.AVF[tool][entries[0].Name]
			classes := make([]isa.Class, 0, len(res.PerClass))
			for c := range res.PerClass {
				classes = append(classes, c)
			}
			sort.Slice(classes, func(i, j int) bool {
				return classes[i].String() < classes[j].String()
			})
			fmt.Println("\nper-class AVFs:")
			for _, c := range classes {
				ca := res.PerClass[c]
				fmt.Printf("  %-7s n=%-5d SDC %.3f DUE %.3f\n",
					c.String(), ca.Injected, ca.SDCAVF.P, ca.DUEAVF.P)
			}
		}
		return nil
	}
}
