package main

import (
	"fmt"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/core"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/kernels"
	"gpurel/internal/profiler"
	"gpurel/internal/report"
	"gpurel/internal/suite"
)

// profileCmd characterizes the Table I workloads on a simulated GPU the
// way nvprof / Nsight Compute characterize them on real silicon: shared
// memory, registers per thread, issued IPC, and achieved occupancy
// (Table I), plus the dynamic instruction-class mix (Figure 1). With
// -residency it adds the golden-run residency telemetry
// (execution-weighted hidden-structure occupancies and the measured
// strike shares they imply); with -timeline CODE it dumps one
// workload's per-launch bucket timelines.
func profileCmd(f *cmdFlags) func() error {
	f.device("kepler")
	csv := f.csv()
	residency := f.Bool("residency", false, "also render the measured residency telemetry table")
	timeline := f.String("timeline", "", "dump the per-launch residency timelines of one workload and exit")
	return func() error {
		dev := f.devs[0]
		if *timeline != "" {
			return dumpTimeline(dev, *timeline)
		}
		ds := &core.DeviceStudy{
			Dev:            dev,
			Profiles:       map[string]*profiler.CodeProfile{},
			MeasuredHidden: map[string]*analysis.HiddenEstimate{},
		}
		for _, e := range suite.ForDevice(dev) {
			r, err := kernels.NewRunner(e.Name, e.Build, dev, asm.O2)
			if err != nil {
				return fmt.Errorf("profiling %s: %w", e.Name, err)
			}
			cp, err := profiler.Profile(r)
			if err != nil {
				return fmt.Errorf("profiling %s: %w", e.Name, err)
			}
			ds.Profiles[e.Name] = cp
			if *residency {
				ds.MeasuredHidden[e.Name] = faultinj.MeasuredHidden(r)
			}
		}
		fmt.Print(report.TableI(ds, *csv))
		fmt.Println()
		fmt.Print(report.Figure1(ds, *csv))
		if *residency {
			fmt.Println()
			fmt.Print(report.ResidencyTable(ds, *csv))
		}
		return nil
	}
}

// dumpTimeline prints one workload's per-launch bucket timelines.
func dumpTimeline(dev *device.Device, code string) error {
	e, err := suite.Find(suite.ForDevice(dev), code)
	if err != nil {
		return usageError{err}
	}
	r, err := kernels.NewRunner(e.Name, e.Build, dev, asm.O2)
	if err != nil {
		return err
	}
	fmt.Print(report.Timelines(r.GoldenProfiles()))
	return nil
}
