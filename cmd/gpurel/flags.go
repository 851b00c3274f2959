package main

import (
	"flag"
	"fmt"
	"io"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/suite"
)

// cmdFlags is one subcommand's flag set. Its methods define the flags
// several subcommands share, each in one place; a subcommand supplies
// only its default. parse resolves the -device, -code and -opt names a
// subcommand defined, so an unknown one is a usage error before any
// work starts.
type cmdFlags struct {
	*flag.FlagSet
	devName, codeName, optName *string

	devs    []*device.Device // -device: one device, or both studied ones for "all"
	entries []suite.Entry    // -code on each of devs; empty without -code
	opts    []asm.OptLevel   // -opt
}

func newFlags(name string, stderr io.Writer) *cmdFlags {
	f := &cmdFlags{FlagSet: flag.NewFlagSet("gpurel "+name, flag.ContinueOnError)}
	f.SetOutput(stderr)
	return f
}

func (f *cmdFlags) device(def string) {
	f.devName = f.String("device", def, "device: kepler, volta or titanv, any case (lint and repro also take all: both studied devices)")
}

func (f *cmdFlags) code(def string) {
	f.codeName = f.String("code", def, "workload: an upper-case suite code such as FMXM (empty: every workload the subcommand covers)")
}

func (f *cmdFlags) opt(def string) {
	f.optName = f.String("opt", def, "compiler configuration: an asm.ParseOptLevel string (O0, O1, O2, O2+u4, O2+spill, ...), \"both\" (O1+O2), or \"matrix\" (the full set)")
}

func (f *cmdFlags) seed(def uint64) *uint64 { return f.Uint64("seed", def, "campaign seed") }

func (f *cmdFlags) csv() *bool { return f.Bool("csv", false, "emit CSV instead of aligned tables") }

func (f *cmdFlags) faults(def int) *int {
	return f.Int("faults", def, "injected faults per code (NVBitFI total; SASSIFI takes a quarter per class); for lint -gate, the campaign size (beam trials for hidden; 0: the gate's own)")
}

func (f *cmdFlags) trials(def int) *int { return f.Int("trials", def, "beam trials per configuration") }

func (f *cmdFlags) workers() *int {
	return f.Int("workers", 0, "parallelism across and within campaigns, or serve's global concurrent-trial bound (0: one per CPU)")
}

func (f *cmdFlags) quiet() *bool {
	return f.Bool("quiet", false, "suppress progress and log lines on stderr")
}

// parse parses args and resolves the names. A bad flag, which the flag
// package has already reported on stderr, ends with a bare usage
// status; a stray argument or an unknown name is a usage error.
func (f *cmdFlags) parse(args []string) error {
	if err := f.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return err
		}
		return exitStatus(2)
	}
	if f.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected argument %q", f.Arg(0))}
	}
	if err := f.resolve(); err != nil {
		return usageError{err}
	}
	return nil
}

func (f *cmdFlags) resolve() error {
	if f.devName != nil {
		if *f.devName == "all" && f.Lookup("device").DefValue == "all" {
			f.devs = []*device.Device{device.K40c(), device.V100()}
		} else {
			d, err := device.ByName(*f.devName)
			if err != nil {
				return err
			}
			f.devs = []*device.Device{d}
		}
	}
	// An empty -code means every workload only where that is the default.
	if f.codeName != nil && (*f.codeName != "" || f.Lookup("code").DefValue != "") {
		for _, d := range f.devs {
			e, err := suite.Find(suite.ForDevice(d), *f.codeName)
			if err != nil {
				return err
			}
			f.entries = append(f.entries, e)
		}
	}
	if f.optName != nil {
		switch *f.optName {
		case "both":
			f.opts = []asm.OptLevel{asm.O1, asm.O2}
		case "matrix":
			f.opts = asm.MatrixConfigs()
		default:
			opt, err := asm.ParseOptLevel(*f.optName)
			if err != nil {
				return fmt.Errorf("unknown configuration %q (want one like O0/O2+u4/O2+spill, \"both\", or \"matrix\"): %w", *f.optName, err)
			}
			f.opts = []asm.OptLevel{opt}
		}
	}
	return nil
}
