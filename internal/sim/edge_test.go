package sim

import (
	"strings"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// Edge-case coverage for the SIMT engine: explicit SSY/SYNC use,
// divergence-stack overflow, barrier misuse, fault-kind corner cases,
// and the unsupported-unit guard.

func TestExplicitSyncJumpsToReconvergence(t *testing.T) {
	g := mem.NewGlobal(1 << 16)
	oBase, _ := g.Alloc(32 * 4)
	b := asm.New("sync", asm.O1)
	gr := b.R()
	b.S2R(gr, isa.SrTidX)
	out := b.R()
	b.MovImm(out, 0)
	p := b.P()
	b.ISetp(p, isa.CmpLT, isa.R(gr), isa.ImmInt(16))
	// Manual SSY region: the taken path SYNCs out early, skipping the
	// poison write.
	b.SSY("join")
	b.BraIf(p, true, "join") // threads >= 16 skip to join
	b.MovImm(out, 1)
	b.Sync() // jump to reconvergence: must skip the poison below
	b.MovImm(out, 99)
	b.Label("join")
	addr := b.R()
	b.IMad(addr, isa.R(gr), isa.ImmInt(4), isa.ImmInt(int32(oBase)))
	b.Stg(addr, 0, out)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 32}, g)
	if res.Outcome != OutcomeOK {
		t.Fatalf("DUE: %s", res.DUEReason())
	}
	for i := 0; i < 32; i++ {
		want := uint32(0)
		if i < 16 {
			want = 1
		}
		if got := g.Word(oBase + uint32(i*4)); got != want {
			t.Fatalf("lane %d = %d, want %d", i, got, want)
		}
	}
}

func TestSyncOutsideDivergenceIsDUE(t *testing.T) {
	g := mem.NewGlobal(1 << 16)
	// The assembler's verify gate rejects an uncovered SYNC at build
	// time, so hand-assemble the malformed program: the engine's own
	// runtime fault path must still catch it.
	zero := [3]isa.Operand{isa.R(isa.RZ), isa.R(isa.RZ), isa.R(isa.RZ)}
	prog := &isa.Program{Name: "badsync", Instrs: []isa.Instr{
		{Op: isa.OpSYNC, Pred: isa.PT, DstP: isa.PT, Dst: isa.RZ, Srcs: zero},
		{Op: isa.OpEXIT, Pred: isa.PT, DstP: isa.PT, Dst: isa.RZ, Srcs: zero},
	}}
	res, _ := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 32}, g)
	if res.Outcome != OutcomeDUE || res.DUEMode != DUESyncError {
		t.Fatalf("bare SYNC must fault as a sync error: %+v", res)
	}
}

func TestBarrierInDivergentRegionIsDUE(t *testing.T) {
	g := mem.NewGlobal(1 << 16)
	b := asm.New("badbar", asm.O1)
	gr := b.R()
	b.S2R(gr, isa.SrTidX)
	p := b.P()
	b.ISetp(p, isa.CmpLT, isa.R(gr), isa.ImmInt(16))
	b.If(p, false, func() {
		b.Bar() // only half the warp arrives
	})
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 32}, g)
	if res.Outcome != OutcomeDUE || res.DUEMode != DUESyncError {
		t.Fatalf("divergent barrier must fault as a sync error: %+v", res)
	}
}

func TestUnsupportedUnitRejectedAtLaunch(t *testing.T) {
	g := mem.NewGlobal(1 << 16)
	b := asm.New("mma_on_kepler", asm.O1)
	aF := b.RVec(4, 4)
	bF := b.RVec(4, 4)
	cF := b.RVec(8, 8)
	b.HMMA(cF, aF, bF, cF)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 32}, g); err == nil {
		t.Fatal("HMMA on Kepler must be rejected at launch")
	}
}

func TestFaultRegIndexMisroutesResult(t *testing.T) {
	g := mem.NewGlobal(1 << 16)
	oBase, _ := g.Alloc(32 * 4)
	build := func() *isa.Program {
		b := asm.New("ioa", asm.O1)
		gr := b.R()
		b.S2R(gr, isa.SrTidX)
		v := b.R()
		b.MovImm(v, 7)
		b.IAdd(v, isa.R(v), isa.ImmInt(1)) // injection target: writes 8
		addr := b.R()
		b.IMad(addr, isa.R(gr), isa.ImmInt(4), isa.ImmInt(int32(oBase)))
		b.Stg(addr, 0, v)
		b.Exit()
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fp := &FaultPlan{
		Kind:         FaultRegIndex,
		Filter:       func(op isa.Op) bool { return op == isa.OpIADD },
		TriggerIndex: 3,
		Bit:          1,
	}
	res, _ := Run(Config{Device: device.K40c(), Program: build(), GridX: 1, GridY: 1, BlockThreads: 32, Fault: fp}, g)
	if !res.Fire.Fired {
		t.Fatal("IOA fault did not fire")
	}
	if res.Outcome == OutcomeDUE {
		return // a misrouted write corrupting an address register may crash
	}
	// Lane 3's IADD result landed in a wrong register; depending on which
	// register absorbed it, lane 3's output is stale, missing, or its
	// store went astray — but the output region must differ from golden.
	diffs := 0
	for i := 0; i < 32; i++ {
		if g.Word(oBase+uint32(i*4)) != 8 {
			diffs++
		}
	}
	if diffs == 0 {
		t.Fatal("misrouted destination register left the output untouched")
	}
}

func TestFaultSharedBit(t *testing.T) {
	g := mem.NewGlobal(1 << 16)
	oBase, _ := g.Alloc(32 * 4)
	build := func() *isa.Program {
		b := asm.New("shbit", asm.O1)
		sh := b.AllocShared(32 * 4)
		gr := b.R()
		b.S2R(gr, isa.SrTidX)
		sAddr := b.R()
		b.IMad(sAddr, isa.R(gr), isa.ImmInt(4), isa.ImmInt(int32(sh)))
		v := b.R()
		b.MovImm(v, 0x1000)
		b.Sts(sAddr, 0, v)
		b.Bar()
		// Long dependency chain so the strike lands between store and load.
		cnt := b.R()
		b.ForCounter(cnt, 0, 64, asm.LoopOpts{}, func() { b.Nop() })
		got := b.R()
		b.Lds(got, sAddr, 0)
		oAddr := b.R()
		b.IMad(oAddr, isa.R(gr), isa.ImmInt(4), isa.ImmInt(int32(oBase)))
		b.Stg(oAddr, 0, got)
		b.Exit()
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fp := &FaultPlan{
		Kind:         FaultSharedBit,
		TriggerIndex: 200, // mid-exposure
		Block:        0,
		BitIdx:       5, // bit 5 of word 0
	}
	res, _ := Run(Config{Device: device.K40c(), Program: build(), GridX: 1, GridY: 1, BlockThreads: 32, Fault: fp}, g)
	if res.Outcome != OutcomeOK || !res.Fire.Fired || !res.Fire.Landed {
		t.Fatalf("shared-bit fault: %+v", res)
	}
	if got := g.Word(oBase); got != 0x1020 {
		t.Fatalf("thread 0 read 0x%x, want 0x1020 (bit 5 flipped)", got)
	}
	if got := g.Word(oBase + 4); got != 0x1000 {
		t.Fatalf("thread 1 read 0x%x, want clean 0x1000", got)
	}
}

func TestFaultGlobalBitPersistsAcrossLaunch(t *testing.T) {
	g := mem.NewGlobal(1 << 16)
	base, _ := g.Alloc(64)
	g.SetWord(base, 0xff)
	b := asm.New("noop", asm.O1)
	r := b.R()
	b.MovImm(r, 0)
	cnt := b.R()
	b.ForCounter(cnt, 0, 8, asm.LoopOpts{}, func() { b.Nop() })
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fp := &FaultPlan{Kind: FaultGlobalBit, TriggerIndex: 10, BitIdx: 0}
	res, _ := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 32, Fault: fp}, g)
	if res.Outcome != OutcomeOK || !res.Fire.Landed {
		t.Fatalf("global-bit fault failed: %+v", res)
	}
	if got := g.Word(base); got != 0xfe {
		t.Fatalf("word = 0x%x, want 0xfe (bit 0 flipped persists)", got)
	}
}

func TestAddrFaultHighWordAlwaysFaults(t *testing.T) {
	g := mem.NewGlobal(1 << 20)
	a, _ := g.Alloc(64 * 4)
	b := asm.New("hibit", asm.O1)
	gr := b.R()
	b.S2R(gr, isa.SrTidX)
	addr := b.R()
	b.IMad(addr, isa.R(gr), isa.ImmInt(4), isa.ImmInt(int32(a)))
	v := b.R()
	b.Ldg(v, addr, 0)
	b.Stg(addr, 0, v)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fp := &FaultPlan{
		Kind:         FaultAddrBit,
		Filter:       func(op isa.Op) bool { return op == isa.OpLDG },
		TriggerIndex: 0,
		Bit:          40, // high address word: out of the 32-bit arena
	}
	res, _ := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 32, Fault: fp}, g)
	if res.Outcome != OutcomeDUE || res.DUEMode != DUEIllegalAddress {
		t.Fatalf("a flip in the high address word must always fault as an illegal address: %+v", res.DUEMode)
	}
}

func TestDeterministicUnderFaultPlans(t *testing.T) {
	// The same plan gives bit-identical outcomes on repeat runs.
	for trial := 0; trial < 2; trial++ {
		g := mem.NewGlobal(1 << 16)
		oBase, _ := g.Alloc(64 * 4)
		b := asm.New("det", asm.O1)
		gr := b.R()
		b.S2R(gr, isa.SrTidX)
		v := b.R()
		b.IMul(v, isa.R(gr), isa.ImmInt(3))
		addr := b.R()
		b.IMad(addr, isa.R(gr), isa.ImmInt(4), isa.ImmInt(int32(oBase)))
		b.Stg(addr, 0, v)
		b.Exit()
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		fp := &FaultPlan{
			Kind:         FaultValueBit,
			Filter:       func(op isa.Op) bool { return op == isa.OpIMUL },
			TriggerIndex: 17,
			Bit:          9,
		}
		res, _ := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 64, Fault: fp}, g)
		if res.Outcome != OutcomeOK {
			t.Fatal(res.DUEReason())
		}
		if got := g.Word(oBase + 17*4); got != (17*3)^(1<<9) {
			t.Fatalf("trial %d: lane 17 = %d", trial, got)
		}
	}
}

func TestTraceEmitsIssuedInstructions(t *testing.T) {
	g := mem.NewGlobal(1 << 16)
	oBase, _ := g.Alloc(32 * 4)
	b := asm.New("traced", asm.O1)
	gr := b.R()
	b.S2R(gr, isa.SrTidX)
	addr := b.R()
	b.IMad(addr, isa.R(gr), isa.ImmInt(4), isa.ImmInt(int32(oBase)))
	b.Stg(addr, 0, gr)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	res, err := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 32, Trace: &buf}, g)
	if err != nil || res.Outcome != OutcomeOK {
		t.Fatalf("%v %v", err, res)
	}
	out := buf.String()
	for _, want := range []string{"S2R R0, SR_TID.X;", "STG.E", "EXIT;", "cta000 w00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != len(prog.Instrs) {
		t.Fatalf("trace has %d lines, want %d (one per issued warp-instruction)", lines, len(prog.Instrs))
	}
}
