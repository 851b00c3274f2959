// Fault-propagation tracing: run the same kernel twice — once clean,
// once with an NVBitFI-style single-bit flip — capture both instruction
// traces, and show where the corruption enters and how far it spreads.
// This is the visibility that fault simulation has and beam experiments
// lack (§II: "beam experiments ... lack visibility as it is hard to
// associate observed behaviors with the source of the fault").
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
	"gpurel/internal/sim"
)

// buildDot builds a small dot-product kernel: each of 32 threads
// multiplies two vector elements and a tree of adds in thread 0 is
// replaced by a plain store per thread (kept simple for the trace).
func buildDot(aBase, bBase, outBase uint32) *isa.Program {
	b := asm.New("dot", asm.O2)
	gid := b.R()
	b.S2R(gid, isa.SrTidX)
	aAddr := b.R()
	b.IMad(aAddr, isa.R(gid), isa.ImmInt(4), isa.ImmInt(int32(aBase)))
	bAddr := b.R()
	b.IMad(bAddr, isa.R(gid), isa.ImmInt(4), isa.ImmInt(int32(bBase)))
	av, bv := b.R(), b.R()
	b.Ldg(av, aAddr, 0)
	b.Ldg(bv, bAddr, 0)
	acc := b.R()
	b.FMul(acc, isa.R(av), isa.R(bv))
	// A short dependent chain so the flip has somewhere to travel.
	for i := 0; i < 3; i++ {
		b.FFma(acc, isa.R(acc), isa.R(av), isa.R(bv))
	}
	oAddr := b.R()
	b.IMad(oAddr, isa.R(gid), isa.ImmInt(4), isa.ImmInt(int32(outBase)))
	b.Stg(oAddr, 0, acc)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return prog
}

func run(fault *sim.FaultPlan) (trace string, out []uint32) {
	g := mem.NewGlobal(1 << 16)
	aBase, _ := g.Alloc(32 * 4)
	bBase, _ := g.Alloc(32 * 4)
	outBase, _ := g.Alloc(32 * 4)
	for i := 0; i < 32; i++ {
		g.SetWord(aBase+uint32(i*4), math.Float32bits(float32(i)*0.25))
		g.SetWord(bBase+uint32(i*4), math.Float32bits(1.5))
	}
	var buf strings.Builder
	res, err := sim.Run(sim.Config{
		Device: device.V100(), Program: buildDot(aBase, bBase, outBase),
		GridX: 1, GridY: 1, BlockThreads: 32,
		Fault: fault, Trace: &buf,
	}, g)
	if err != nil {
		log.Fatal(err)
	}
	if res.Outcome != sim.OutcomeOK {
		log.Fatalf("DUE: %s", res.DUEReason())
	}
	return buf.String(), g.ReadWords(outBase, 32)
}

func main() {
	goldenTrace, golden := run(nil)

	plan := &sim.FaultPlan{
		Kind:         sim.FaultValueBit,
		Filter:       func(op isa.Op) bool { return op == isa.OpFMUL },
		TriggerIndex: 12, // lane 12 of the single FMUL
		Bit:          27, // an exponent bit: clearly visible
	}
	faultyTrace, faulty := run(plan)

	fmt.Println("golden instruction trace (one line per issued warp-instruction):")
	for _, line := range strings.Split(strings.TrimSpace(goldenTrace), "\n") {
		fmt.Println("  " + line)
	}
	if faultyTrace == goldenTrace {
		fmt.Println("\nthe dynamic instruction stream is identical under the fault:")
		fmt.Println("a pure data corruption changes values, not control flow.")
	} else {
		fmt.Println("\nthe fault diverted control flow; traces differ.")
	}

	fmt.Printf("\nfault: %s into lane %d of the FMUL output, bit %d\n",
		plan.Kind, 12, plan.Bit)
	fmt.Println("output comparison (silent data corruption, lane by lane):")
	for i := range golden {
		g := math.Float32frombits(golden[i])
		f := math.Float32frombits(faulty[i])
		marker := ""
		if golden[i] != faulty[i] {
			marker = "   <-- corrupted"
		}
		if marker != "" || i == 11 || i == 13 {
			fmt.Printf("  lane %2d: golden %12.4f   faulted %12.4f%s\n", i, g, f, marker)
		}
	}
	fmt.Println("\nexactly one lane differs: the flip propagated through the FFMA")
	fmt.Println("chain into the output — an SDC the beam would count as one event,")
	fmt.Println("with the injector alone able to say which instruction caused it.")
}
