package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gpurel/internal/core"
	"gpurel/internal/device"
	"gpurel/internal/pprofutil"
	"gpurel/internal/report"
)

// reproCmd regenerates every table and figure of the paper in one run: the
// full two-device study (Volta first, so its NVBitFI AVFs can proxy for
// Kepler's library codes), written as text and CSV artifacts under
// -out. -device limits the artifacts to one device; a Volta study runs
// alone, a Kepler study still needs the Volta campaigns.
//
//	gpurel repro -out out -trials 350 -faults 500
//	gpurel repro -device volta -trials 450 -faults 640 -seed 1
func reproCmd(f *cmdFlags) func() error {
	outDir := f.String("out", "out", "output directory")
	f.device("all")
	trials := f.trials(350)
	faults := f.faults(500)
	workers := f.workers()
	seed := f.seed(1)
	quiet := f.quiet()
	fromDir := f.String("from", "", "re-render artifacts from a directory of saved study_*.json files instead of running campaigns")
	pprofutil.AddFlags(f.FlagSet)
	return func() error {
		if err := pprofutil.Start(); err != nil {
			return err
		}
		defer pprofutil.Stop()

		if *fromDir != "" {
			var studies []*core.DeviceStudy
			for _, dev := range f.devs {
				ds, err := core.LoadDeviceStudy(filepath.Join(*fromDir, "study_"+devTag(dev)+".json"))
				if err != nil {
					return err
				}
				studies = append(studies, ds)
			}
			if err := writeAll(*outDir, studies); err != nil {
				return err
			}
			fmt.Printf("re-rendered artifacts from %s into %s\n", *fromDir, *outDir)
			return nil
		}

		opts := core.Options{
			MicroTrials:     *trials,
			CodeTrials:      *trials,
			SassifiPerClass: *faults / 4,
			NVBitFITotal:    *faults,
			Workers:         *workers,
			Seed:            *seed,
		}
		if !*quiet {
			opts.Progress = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
		}
		start := time.Now()
		studies, err := runStudy(f.devs, opts)
		if err != nil {
			return err
		}
		if err := writeAll(*outDir, studies); err != nil {
			return err
		}
		for _, ds := range studies {
			if err := ds.SaveJSON(filepath.Join(*outDir, "study_"+devTag(ds.Dev)+".json")); err != nil {
				return err
			}
		}
		fmt.Printf("study complete in %s; artifacts in %s\n",
			time.Since(start).Round(time.Second), *outDir)
		// Print the headline summary inline.
		for _, ds := range studies {
			fmt.Print(report.Figure6(ds, false) + report.DUETable(ds, false) + "\n")
		}
		return nil
	}
}

// runStudy runs the studies of devs, in devs' order. A lone Volta
// study runs and finalizes by itself; any Kepler study goes through
// core.Run, because Kepler's library codes take their AVF from Volta's
// NVBitFI campaigns (§III-D).
func runStudy(devs []*device.Device, opts core.Options) ([]*core.DeviceStudy, error) {
	if len(devs) == 1 && devs[0].Arch != device.Kepler {
		ds, err := core.RunDevice(devs[0], opts)
		if err == nil {
			err = ds.Finalize(nil)
		}
		return []*core.DeviceStudy{ds}, err
	}
	study, err := core.Run(opts)
	if err != nil {
		return nil, err
	}
	if len(devs) == 1 {
		return []*core.DeviceStudy{study.Kepler}, nil
	}
	return report.Devices(study), nil
}

// devTag names a device in artifact file names.
func devTag(dev *device.Device) string {
	return strings.ToLower(dev.Arch.String())
}

// writeAll renders every table and figure, text and CSV, per device.
func writeAll(outDir string, studies []*core.DeviceStudy) error {
	type artifact struct {
		name   string
		render func(*core.DeviceStudy, bool) string
	}
	artifacts := []artifact{
		{"table1", report.TableI},
		{"fig1", report.Figure1},
		{"fig3", report.Figure3},
		{"fig4", report.Figure4},
		{"fig5", report.Figure5},
		{"fig6", report.Figure6},
		{"hidden", report.HiddenDUE},
		{"residency", report.ResidencyTable},
		{"due_gap", report.DUEGapTable},
		{"due", report.DUETable},
		{"crossval", report.CrossValTable},
		{"bitband", report.StudyBitBand},
		{"opt", report.OptTable},
		{"opt_pressure", report.OptPressureTable},
		{"patterns", report.PatternsTable},
		{"patterns_twolevel", report.TwoLevelTable},
		{"due_modes", report.DUEModesTable},
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var err error
	write := func(name, content string) {
		if err == nil {
			err = os.WriteFile(filepath.Join(outDir, name), []byte(content), 0o644)
		}
	}
	for _, ds := range studies {
		tag := devTag(ds.Dev)
		for _, a := range artifacts {
			write(fmt.Sprintf("%s_%s.txt", a.name, tag), a.render(ds, false))
			write(fmt.Sprintf("%s_%s.csv", a.name, tag), a.render(ds, true))
		}
		write(fmt.Sprintf("full_%s.txt", tag), report.Full(ds, false))
	}
	return err
}
