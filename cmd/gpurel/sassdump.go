package main

import (
	"fmt"

	"gpurel/internal/report"
)

// sassdumpCmd disassembles the kernels of a workload the way nvdisasm
// dumps SASS, for both compiler generations side by side — the quickest
// way to see the codegen differences that drive the SASSIFI-versus-
// NVBitFI AVF gap (§VI).
//
//	gpurel sassdump -device kepler -code FMXM
//	gpurel sassdump -device volta -code HGEMM-MMA -opt O2
//	gpurel sassdump -device kepler -code BFS -bits   annotate widths + known bits
func sassdumpCmd(f *cmdFlags) func() error {
	f.device("kepler")
	f.code("FMXM")
	f.opt("both")
	bits := f.Bool("bits", false, "annotate each instruction with destination/operand widths and the known-bits/range facts the analyzer derives")
	return func() error {
		dev, e := f.devs[0], f.entries[0]
		for _, opt := range f.opts {
			inst, err := e.Build(dev, opt)
			if err != nil {
				return err
			}
			fmt.Printf("// %s on %s, pipeline %s (%d kernel launches)\n\n",
				e.Name, dev.Name, opt, len(inst.Launches))
			seen := map[string]bool{}
			for _, l := range inst.Launches {
				if seen[l.Prog.Name] {
					continue
				}
				seen[l.Prog.Name] = true
				fmt.Printf("// kernel %s: %d instructions, %d regs/thread, %dB shared, grid %dx%d x %d threads\n",
					l.Prog.Name, len(l.Prog.Instrs), l.Prog.NumRegs, l.Prog.SharedMem,
					l.GridX, l.GridY, l.BlockThreads)
				if *bits {
					fmt.Print(report.AnnotatedSASS(l))
				} else {
					fmt.Print(l.Prog.Disassemble())
				}
				fmt.Println()
			}
		}
		return nil
	}
}
