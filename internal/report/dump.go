package report

import (
	"fmt"
	"strings"

	"gpurel/internal/analysis"
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
)

// Timelines renders every launch's residency bucket series: the raw
// golden-run telemetry the residency aggregates are computed from.
func Timelines(profiles []sim.Profile) string {
	var b strings.Builder
	for li, p := range profiles {
		tl := p.Timeline
		fmt.Fprintf(&b, "launch %d: %d cycles, bucket width %d\n", li, p.Cycles, tl.BucketWidth)
		fmt.Fprintf(&b, "  %6s  %8s  %10s  %12s  %10s  %8s  %10s  %10s\n",
			"bucket", "cycles", "SM cycles", "warp cycles", "issued", "ctrl", "load res", "div res")
		for bi, bk := range tl.Buckets {
			if bk.Cycles == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %6d  %8d  %10d  %12d  %10d  %8d  %10d  %10d\n",
				bi, bk.Cycles, bk.SMCycles, bk.ActiveWarpCycles, bk.Issued,
				bk.CtrlOps, bk.LoadResidency, bk.DivResidency)
		}
	}
	return b.String()
}

// AnnotatedSASS renders a launch's disassembly with each
// value-producing instruction annotated by its destination width, any
// architecturally-narrow source reads, the known-bits and range facts
// the forward pass derives under the launch's geometry, and the mean
// bit-resolved ACE fractions.
func AnnotatedSASS(l kernels.Launch) string {
	p := l.Prog
	r := analysis.AnalyzeLaunch(p, &analysis.Bounds{
		GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads,
	})
	var b strings.Builder
	fmt.Fprintf(&b, "\t.text.%s:\n", p.Name)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		fmt.Fprintf(&b, "  /*%04d*/  %s\n", i, in.String())
		if in.DstRegs() == 0 {
			continue
		}
		v := &r.ACEVec[i]
		ann := fmt.Sprintf("dst %db", in.DstBits())
		for slot := 0; slot < 3; slot++ {
			if w := in.SrcValueBits(slot); w != 32 {
				ann += fmt.Sprintf("  src%d %db", slot, w)
			}
		}
		f := r.Facts[i]
		if f.KB.KnownCount() > 0 {
			ann += "  kb " + f.KB.String()
		}
		if !f.R.IsFull() {
			ann += "  r " + f.R.String()
		}
		ann += fmt.Sprintf("  sdc %.3f due %.3f", v.MeanSDC(), v.MeanDUE())
		if v.Dead() {
			ann += "  dead"
		}
		fmt.Fprintf(&b, "            // %s\n", ann)
	}
	return b.String()
}
