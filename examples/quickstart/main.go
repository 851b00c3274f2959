// Quickstart: build a workload, profile it like nvprof would, inject a
// single fault the way NVBitFI would, and run a tiny beam campaign —
// the three methodologies of the paper in ~60 lines.
package main

import (
	"fmt"
	"log"

	"gpurel/internal/asm"
	"gpurel/internal/beam"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/profiler"
)

func main() {
	dev := device.K40c()

	// A workload is a Builder; the Runner performs the golden run.
	runner, err := kernels.NewRunner("FMXM", kernels.MxMBuilder(isa.F32), dev, asm.O2)
	if err != nil {
		log.Fatal(err)
	}

	// Methodology 1: profiling (Table I / Figure 1).
	prof, err := profiler.Profile(runner)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profile of %s on %s:\n", prof.Name, dev.Name)
	fmt.Printf("  IPC %.2f, achieved occupancy %.2f, %d regs/thread, phi=%.3f\n",
		prof.IPC, prof.Occupancy, prof.RegsPerThread, prof.Phi())
	fmt.Printf("  FMA fraction of dynamic instructions: %.0f%%\n",
		100*prof.Mix[isa.ClassFMA])

	// Methodology 2: fault injection (Figure 4).
	// NVBitFI injects into the O2 code the runner already holds.
	avf, err := faultinj.RunWithRunner(faultinj.Config{
		Tool: faultinj.NVBitFI, TotalFaults: 150, Seed: 42,
	}, runner)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nNVBitFI campaign: %d faults -> %d SDC, %d DUE, %d masked\n",
		avf.Injected, avf.SDC, avf.DUE, avf.Masked)
	fmt.Printf("  SDC AVF %.3f [%.3f, %.3f]\n",
		avf.SDCAVF.P, avf.SDCAVF.Lower, avf.SDCAVF.Upper)

	// Methodology 3: beam experiment (Figure 5).
	res, err := beam.Run(beam.Config{ECC: false, Trials: 120, Seed: 42}, runner)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbeam campaign (ECC off): SDC FIT %.3f a.u., DUE FIT %.3f a.u.\n",
		res.SDCFIT.Rate, res.DUEFIT.Rate)
	for src := beam.Source(0); src < beam.SrcCount; src++ {
		s := res.BySource[src]
		fmt.Printf("  %-16s %3d strikes -> %2d SDC, %2d DUE\n", src, s.Strikes, s.SDC, s.DUE)
	}
}
