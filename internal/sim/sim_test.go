package sim

import (
	"math"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// gid emits the global-thread-id computation into a fresh register.
func gid(b *asm.Builder) isa.Reg {
	tid := b.R()
	cta := b.R()
	ntid := b.R()
	g := b.R()
	b.S2R(tid, isa.SrTidX)
	b.S2R(cta, isa.SrCtaidX)
	b.S2R(ntid, isa.SrNtidX)
	b.IMad(g, isa.R(cta), isa.R(ntid), isa.R(tid))
	return g
}

// elemAddr emits address = base + g*scale into a fresh register.
func elemAddr(b *asm.Builder, g isa.Reg, base uint32, scale int32) isa.Reg {
	a := b.R()
	b.IMad(a, isa.R(g), isa.ImmInt(scale), isa.ImmInt(int32(base)))
	return a
}

// buildVecAdd builds out[i] = a[i] + b[i] over n float32 elements.
func buildVecAdd(t *testing.T, aBase, bBase, outBase uint32) *isa.Program {
	t.Helper()
	b := asm.New("vecadd", asm.O1)
	g := gid(b)
	aAddr := elemAddr(b, g, aBase, 4)
	bAddr := elemAddr(b, g, bBase, 4)
	oAddr := elemAddr(b, g, outBase, 4)
	av, bv, ov := b.R(), b.R(), b.R()
	b.Ldg(av, aAddr, 0)
	b.Ldg(bv, bAddr, 0)
	b.FAdd(ov, isa.R(av), isa.R(bv))
	b.Stg(oAddr, 0, ov)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVecAddMultiBlock(t *testing.T) {
	g := mem.NewGlobal(1 << 20)
	const n = 256
	aBase, _ := g.Alloc(n * 4)
	bBase, _ := g.Alloc(n * 4)
	oBase, _ := g.Alloc(n * 4)
	for i := 0; i < n; i++ {
		g.SetWord(aBase+uint32(i*4), math.Float32bits(float32(i)))
		g.SetWord(bBase+uint32(i*4), math.Float32bits(float32(2*i)))
	}
	prog := buildVecAdd(t, aBase, bBase, oBase)
	res, err := Run(Config{
		Device: device.K40c(), Program: prog,
		GridX: 4, GridY: 1, BlockThreads: 64,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeOK {
		t.Fatalf("run failed: %s", res.DUEReason())
	}
	for i := 0; i < n; i++ {
		got := math.Float32frombits(g.Word(oBase + uint32(i*4)))
		if got != float32(3*i) {
			t.Fatalf("out[%d] = %g, want %g", i, got, float32(3*i))
		}
	}
}

func TestDivergentIfElse(t *testing.T) {
	g := mem.NewGlobal(1 << 20)
	const n = 64
	oBase, _ := g.Alloc(n * 4)

	b := asm.New("diverge", asm.O1)
	gr := gid(b)
	p := b.P()
	out := b.R()
	b.ISetp(p, isa.CmpLT, isa.R(gr), isa.ImmInt(n/2)) // lower half vs upper
	b.IfElse(p, false,
		func() { b.MovImm(out, 111) },
		func() { b.MovImm(out, 222) })
	oAddr := elemAddr(b, gr, oBase, 4)
	b.Stg(oAddr, 0, out)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: n}, g)
	if err != nil || res.Outcome != OutcomeOK {
		t.Fatalf("run: %v %v", err, res)
	}
	for i := 0; i < n; i++ {
		want := uint32(111)
		if i >= n/2 {
			want = 222
		}
		if got := g.Word(oBase + uint32(i*4)); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestIntraWarpDivergence(t *testing.T) {
	// Odd/even lanes diverge inside a single warp.
	g := mem.NewGlobal(1 << 20)
	oBase, _ := g.Alloc(32 * 4)
	b := asm.New("intra", asm.O1)
	gr := gid(b)
	par := b.R()
	b.And(par, isa.R(gr), isa.ImmInt(1))
	p := b.P()
	b.ISetp(p, isa.CmpEQ, isa.R(par), isa.ImmInt(0))
	out := b.R()
	b.IfElse(p, false,
		func() {
			b.MovImm(out, 5)
			b.IAdd(out, isa.R(out), isa.ImmInt(5)) // even: 10
		},
		func() { b.MovImm(out, 7) }) // odd: 7
	oAddr := elemAddr(b, gr, oBase, 4)
	b.Stg(oAddr, 0, out)
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
		want := uint32(10)
		if i%2 == 1 {
			want = 7
		}
		if got := g.Word(oBase + uint32(i*4)); got != want {
			t.Fatalf("lane %d = %d, want %d", i, got, want)
		}
	}
}

func TestNestedDivergence(t *testing.T) {
	g := mem.NewGlobal(1 << 20)
	oBase, _ := g.Alloc(32 * 4)
	b := asm.New("nested", asm.O1)
	gr := gid(b)
	out := b.R()
	b.MovImm(out, 0)
	p1 := b.P()
	b.ISetp(p1, isa.CmpLT, isa.R(gr), isa.ImmInt(16))
	b.If(p1, false, func() {
		p2 := b.P()
		b.ISetp(p2, isa.CmpLT, isa.R(gr), isa.ImmInt(8))
		b.IfElse(p2, false,
			func() { b.MovImm(out, 1) },
			func() { b.MovImm(out, 2) })
		b.ReleaseP(p2)
	})
	oAddr := elemAddr(b, gr, oBase, 4)
	b.Stg(oAddr, 0, out)
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
		var want uint32
		switch {
		case i < 8:
			want = 1
		case i < 16:
			want = 2
		}
		if got := g.Word(oBase + uint32(i*4)); got != want {
			t.Fatalf("lane %d = %d, want %d", i, got, want)
		}
	}
}

func TestDivergentLoopTripCounts(t *testing.T) {
	// Each lane iterates gid+1 times: divergent backward branch.
	g := mem.NewGlobal(1 << 20)
	oBase, _ := g.Alloc(64 * 4)
	b := asm.New("divloop", asm.O1)
	gr := gid(b)
	acc := b.R()
	i := b.R()
	bound := b.R()
	b.MovImm(acc, 0)
	b.MovImm(i, 0)
	b.IAdd(bound, isa.R(gr), isa.ImmInt(1))
	b.Label("loop")
	b.IAdd(acc, isa.R(acc), isa.ImmInt(3))
	b.IAdd(i, isa.R(i), isa.ImmInt(1))
	p := b.P()
	b.ISetp(p, isa.CmpLT, isa.R(i), isa.R(bound))
	b.BraIf(p, false, "loop")
	oAddr := elemAddr(b, gr, oBase, 4)
	b.Stg(oAddr, 0, acc)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Run(Config{Device: device.K40c(), Program: prog, GridX: 2, GridY: 1, BlockThreads: 32}, g)
	if res.Outcome != OutcomeOK {
		t.Fatalf("DUE: %s", res.DUEReason())
	}
	for i := 0; i < 64; i++ {
		if got := g.Word(oBase + uint32(i*4)); got != uint32(3*(i+1)) {
			t.Fatalf("lane %d = %d, want %d", i, got, 3*(i+1))
		}
	}
}

func TestBarrierSharedReduction(t *testing.T) {
	// Block-wide tree reduction in shared memory.
	g := mem.NewGlobal(1 << 20)
	oBase, _ := g.Alloc(4 * 4) // one word per block
	const threads = 64
	b := asm.New("reduce", asm.O1)
	sBase := b.AllocShared(threads * 4)
	tid := b.R()
	b.S2R(tid, isa.SrTidX)
	sAddr := b.R()
	b.IMad(sAddr, isa.R(tid), isa.ImmInt(4), isa.ImmInt(int32(sBase)))
	one := b.R()
	b.IAdd(one, isa.R(tid), isa.ImmInt(1)) // value = tid+1
	b.Sts(sAddr, 0, one)
	b.Bar()
	// Tree reduction: stride from threads/2 down to 1.
	for stride := int32(threads / 2); stride >= 1; stride /= 2 {
		p := b.P()
		b.ISetp(p, isa.CmpLT, isa.R(tid), isa.ImmInt(stride))
		b.Guarded(p, false, func() {
			peer := b.R()
			pv := b.R()
			mine := b.R()
			b.IMad(peer, isa.R(tid), isa.ImmInt(4), isa.ImmInt(int32(sBase)+stride*4))
			b.Lds(pv, peer, 0)
			b.Lds(mine, sAddr, 0)
			b.IAdd(mine, isa.R(mine), isa.R(pv))
			b.Sts(sAddr, 0, mine)
		})
		b.ReleaseP(p)
		b.Bar()
	}
	p := b.P()
	b.ISetp(p, isa.CmpEQ, isa.R(tid), isa.ImmInt(0))
	b.Guarded(p, false, func() {
		cta := b.R()
		res := b.R()
		oAddr := b.R()
		b.S2R(cta, isa.SrCtaidX)
		b.Lds(res, sAddr, 0)
		b.IMad(oAddr, isa.R(cta), isa.ImmInt(4), isa.ImmInt(int32(oBase)))
		b.Stg(oAddr, 0, res)
	})
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Run(Config{Device: device.V100(), Program: prog, GridX: 4, GridY: 1, BlockThreads: threads}, g)
	if res.Outcome != OutcomeOK {
		t.Fatalf("DUE: %s", res.DUEReason())
	}
	want := uint32(threads * (threads + 1) / 2)
	for blk := 0; blk < 4; blk++ {
		if got := g.Word(oBase + uint32(blk*4)); got != want {
			t.Fatalf("block %d sum = %d, want %d", blk, got, want)
		}
	}
}

func TestPartialWarp(t *testing.T) {
	g := mem.NewGlobal(1 << 20)
	oBase, _ := g.Alloc(40 * 4)
	b := asm.New("partial", asm.O1)
	gr := gid(b)
	oAddr := elemAddr(b, gr, oBase, 4)
	b.Stg(oAddr, 0, gr)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 40}, g)
	if res.Outcome != OutcomeOK {
		t.Fatalf("DUE: %s", res.DUEReason())
	}
	for i := 0; i < 40; i++ {
		if got := g.Word(oBase + uint32(i*4)); got != uint32(i) {
			t.Fatalf("out[%d] = %d", i, got)
		}
	}
}

func TestFP64Arithmetic(t *testing.T) {
	g := mem.NewGlobal(1 << 20)
	oBase, _ := g.Alloc(32 * 8)
	b := asm.New("f64", asm.O1)
	gr := gid(b)
	x := b.RPair()
	y := b.RPair()
	z := b.RPair()
	xf := b.R()
	b.I2F(xf, gr)
	b.F2F(x, xf, isa.F32, isa.F64) // x = float64(gid)
	b.MovImmF64(y, 1.5)
	b.DFma(z, x, y, y) // z = 1.5*gid + 1.5
	oAddr := elemAddr(b, gr, oBase, 8)
	b.StgWide(oAddr, 0, z)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Run(Config{Device: device.V100(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 32}, g)
	if res.Outcome != OutcomeOK {
		t.Fatalf("DUE: %s", res.DUEReason())
	}
	for i := 0; i < 32; i++ {
		lo := g.Word(oBase + uint32(i*8))
		hi := g.Word(oBase + uint32(i*8+4))
		got := math.Float64frombits(uint64(lo) | uint64(hi)<<32)
		want := 1.5*float64(i) + 1.5
		if got != want {
			t.Fatalf("out[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestFP16Arithmetic(t *testing.T) {
	g := mem.NewGlobal(1 << 20)
	oBase, _ := g.Alloc(32 * 4)
	b := asm.New("f16", asm.O1)
	gr := gid(b)
	h := b.R()
	one := b.R()
	xf := b.R()
	b.I2F(xf, gr)
	b.F2F(h, xf, isa.F32, isa.F16)
	b.MovImmF16(one, 1)
	b.HFma(h, isa.R(h), isa.R(one), isa.R(one)) // h = gid*1 + 1
	out := b.R()
	b.F2F(out, h, isa.F16, isa.F32)
	oAddr := elemAddr(b, gr, oBase, 4)
	b.Stg(oAddr, 0, out)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Run(Config{Device: device.V100(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 32}, g)
	if res.Outcome != OutcomeOK {
		t.Fatalf("DUE: %s", res.DUEReason())
	}
	for i := 0; i < 32; i++ {
		got := math.Float32frombits(g.Word(oBase + uint32(i*4)))
		if got != float32(i+1) {
			t.Fatalf("out[%d] = %g, want %d", i, got, i+1)
		}
	}
}

func TestAtomicRED(t *testing.T) {
	g := mem.NewGlobal(1 << 20)
	oBase, _ := g.Alloc(8)
	b := asm.New("atomic", asm.O1)
	one := b.R()
	addr := b.R()
	b.MovImm(one, 1)
	b.MovImm(addr, oBase)
	b.RedAdd(addr, 0, one)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Run(Config{Device: device.K40c(), Program: prog, GridX: 3, GridY: 1, BlockThreads: 64}, g)
	if res.Outcome != OutcomeOK {
		t.Fatalf("DUE: %s", res.DUEReason())
	}
	if got := g.Word(oBase); got != 192 {
		t.Fatalf("atomic sum = %d, want 192", got)
	}
}

func TestWatchdogHangIsDUE(t *testing.T) {
	g := mem.NewGlobal(1 << 16)
	b := asm.New("hang", asm.O1)
	b.Label("forever")
	b.Nop()
	b.Bra("forever")
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 32, MaxCycles: 10000}, g)
	if res.Outcome != OutcomeDUE {
		t.Fatal("infinite loop must be a DUE")
	}
}

func TestInvalidAccessIsDUE(t *testing.T) {
	g := mem.NewGlobal(1 << 16)
	b := asm.New("oob", asm.O1)
	addr := b.R()
	v := b.R()
	b.MovImm(addr, 0) // null
	b.Ldg(v, addr, 0)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 32}, g)
	if res.Outcome != OutcomeDUE {
		t.Fatal("null dereference must be a DUE")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (*Result, []uint32) {
		g := mem.NewGlobal(1 << 20)
		a, _ := g.Alloc(128 * 4)
		bb, _ := g.Alloc(128 * 4)
		o, _ := g.Alloc(128 * 4)
		for i := 0; i < 128; i++ {
			g.SetWord(a+uint32(i*4), math.Float32bits(float32(i)*0.5))
			g.SetWord(bb+uint32(i*4), math.Float32bits(float32(i)*0.25))
		}
		prog := buildVecAdd(t, a, bb, o)
		res, err := Run(Config{Device: device.V100(), Program: prog, GridX: 2, GridY: 1, BlockThreads: 64}, g)
		if err != nil {
			t.Fatal(err)
		}
		return res, g.ReadWords(o, 128)
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1.Profile.Cycles != r2.Profile.Cycles || r1.Profile.WarpInstrs != r2.Profile.WarpInstrs {
		t.Fatal("timing not deterministic")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("output not deterministic")
		}
	}
}

func TestProfileMetrics(t *testing.T) {
	g := mem.NewGlobal(1 << 20)
	a, _ := g.Alloc(256 * 4)
	bb, _ := g.Alloc(256 * 4)
	o, _ := g.Alloc(256 * 4)
	prog := buildVecAdd(t, a, bb, o)
	dev := device.K40c()
	res, err := Run(Config{Device: dev, Program: prog, GridX: 4, GridY: 1, BlockThreads: 64}, g)
	if err != nil {
		t.Fatal(err)
	}
	p := &res.Profile
	if p.Cycles <= 0 || p.WarpInstrs == 0 || p.LaneOps == 0 {
		t.Fatalf("empty profile: %+v", p)
	}
	if got := p.PerOpLane[isa.OpFADD]; got != 256 {
		t.Fatalf("FADD lane ops = %d, want 256", got)
	}
	if got := p.PerOpLane[isa.OpLDG]; got != 512 {
		t.Fatalf("LDG lane ops = %d, want 512", got)
	}
	if got := p.PerOpLane[isa.OpSTG]; got != 256 {
		t.Fatalf("STG lane ops = %d, want 256", got)
	}
	occ := p.AchievedOccupancy(dev)
	if occ <= 0 || occ > 1 {
		t.Fatalf("achieved occupancy = %g", occ)
	}
	if ipc := p.IPC(); ipc <= 0 || ipc > float64(dev.SchedulersPerSM*dev.IssuePerScheduler) {
		t.Fatalf("IPC = %g out of range", ipc)
	}
	if p.SMsUsed != 4 {
		t.Fatalf("SMs used = %d, want 4 (one per block)", p.SMsUsed)
	}
}

func TestMoreParallelWorkRaisesOccupancy(t *testing.T) {
	run := func(blocks int) float64 {
		g := mem.NewGlobal(1 << 22)
		n := blocks * 64
		a, _ := g.Alloc(n * 4)
		bb, _ := g.Alloc(n * 4)
		o, _ := g.Alloc(n * 4)
		prog := buildVecAdd(t, a, bb, o)
		dev := device.K40c()
		res, err := Run(Config{Device: dev, Program: prog, GridX: blocks, GridY: 1, BlockThreads: 64}, g)
		if err != nil {
			t.Fatal(err)
		}
		return res.Profile.AchievedOccupancy(dev)
	}
	small, big := run(1), run(120)
	if big <= small {
		t.Fatalf("occupancy should grow with grid size: %g vs %g", small, big)
	}
}

func TestMMAMatchesSoftware(t *testing.T) {
	// One warp loads A, B (f16) and C (f32) fragments from global memory,
	// performs HMMA, and stores D. Compare against a software reference.
	g := mem.NewGlobal(1 << 20)
	aBase, _ := g.Alloc(256 * 2) // 256 halves
	bBase, _ := g.Alloc(256 * 2)
	cBase, _ := g.Alloc(256 * 4)
	dBase, _ := g.Alloc(256 * 4)

	var aM, bM [16][16]float32
	var cM [16][16]float32
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			aM[i][j] = float32(i+j%5) * 0.25
			bM[i][j] = float32(i%3) * 0.5
			cM[i][j] = float32(j) * 0.125
		}
	}
	// Pack halves two per word using the fragment layout.
	for flat := 0; flat < 256; flat += 2 {
		i0, j0 := flat/16, flat%16
		i1, j1 := (flat+1)/16, (flat+1)%16
		pack := func(x, y float32) uint32 {
			return uint32(isa.F32ToF16(x)) | uint32(isa.F32ToF16(y))<<16
		}
		g.SetWord(aBase+uint32(flat*2), pack(aM[i0][j0], aM[i1][j1]))
		g.SetWord(bBase+uint32(flat*2), pack(bM[i0][j0], bM[i1][j1]))
	}
	for flat := 0; flat < 256; flat++ {
		g.SetWord(cBase+uint32(flat*4), math.Float32bits(cM[flat/16][flat%16]))
	}

	b := asm.New("mma", asm.O1)
	lane := b.R()
	b.S2R(lane, isa.SrLaneID)
	aF := b.RVec(4, 4)
	bF := b.RVec(4, 4)
	cF := b.RVec(8, 8)
	dF := b.RVec(8, 8)
	// Each lane owns 8 consecutive flat elements: halves at
	// aBase + lane*16 bytes, floats at cBase + lane*32 bytes.
	hAddr := b.R()
	b.IMad(hAddr, isa.R(lane), isa.ImmInt(16), isa.ImmInt(int32(aBase)))
	for r := 0; r < 4; r++ {
		b.Ldg(aF+isa.Reg(r), hAddr, uint32(r*4))
	}
	b.IMad(hAddr, isa.R(lane), isa.ImmInt(16), isa.ImmInt(int32(bBase)))
	for r := 0; r < 4; r++ {
		b.Ldg(bF+isa.Reg(r), hAddr, uint32(r*4))
	}
	fAddr := b.R()
	b.IMad(fAddr, isa.R(lane), isa.ImmInt(32), isa.ImmInt(int32(cBase)))
	for r := 0; r < 8; r++ {
		b.Ldg(cF+isa.Reg(r), fAddr, uint32(r*4))
	}
	b.HMMA(dF, aF, bF, cF)
	b.IMad(fAddr, isa.R(lane), isa.ImmInt(32), isa.ImmInt(int32(dBase)))
	for r := 0; r < 8; r++ {
		b.Stg(fAddr, uint32(r*4), dF+isa.Reg(r))
	}
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Run(Config{Device: device.V100(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 32}, g)
	if res.Outcome != OutcomeOK {
		t.Fatalf("DUE: %s", res.DUEReason())
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			want := cM[i][j]
			for k := 0; k < 16; k++ {
				a16 := isa.F16ToF32(isa.F32ToF16(aM[i][k]))
				b16 := isa.F16ToF32(isa.F32ToF16(bM[k][j]))
				want += a16 * b16
			}
			got := math.Float32frombits(g.Word(dBase + uint32((i*16+j)*4)))
			if math.Abs(float64(got-want)) > 1e-3*math.Abs(float64(want))+1e-4 {
				t.Fatalf("D[%d][%d] = %g, want %g", i, j, got, want)
			}
		}
	}
	if res.Profile.PerOpLane[isa.OpHMMA] != 32 {
		t.Fatalf("HMMA lane ops = %d, want 32", res.Profile.PerOpLane[isa.OpHMMA])
	}
}

func TestFaultValueBitCorruptsOutput(t *testing.T) {
	golden := func(fault *FaultPlan) (*Result, []uint32) {
		g := mem.NewGlobal(1 << 20)
		a, _ := g.Alloc(64 * 4)
		bb, _ := g.Alloc(64 * 4)
		o, _ := g.Alloc(64 * 4)
		for i := 0; i < 64; i++ {
			g.SetWord(a+uint32(i*4), math.Float32bits(1))
			g.SetWord(bb+uint32(i*4), math.Float32bits(2))
		}
		prog := buildVecAdd(t, a, bb, o)
		res, err := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 64, Fault: fault}, g)
		if err != nil {
			t.Fatal(err)
		}
		return res, g.ReadWords(o, 64)
	}
	_, ref := golden(nil)
	fp := &FaultPlan{
		Kind:         FaultValueBit,
		Filter:       func(op isa.Op) bool { return op == isa.OpFADD },
		TriggerIndex: 10,
		Bit:          30, // exponent bit: guaranteed visible
	}
	res, faulty := golden(fp)
	if !res.Fire.Fired {
		t.Fatal("fault plan did not fire")
	}
	if res.Outcome != OutcomeOK {
		t.Fatal("value fault should not crash this kernel")
	}
	diff := 0
	for i := range ref {
		if ref[i] != faulty[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("exactly one output should differ, got %d", diff)
	}
}

func TestFaultBeyondStreamIsMasked(t *testing.T) {
	g := mem.NewGlobal(1 << 20)
	a, _ := g.Alloc(64 * 4)
	bb, _ := g.Alloc(64 * 4)
	o, _ := g.Alloc(64 * 4)
	prog := buildVecAdd(t, a, bb, o)
	fp := &FaultPlan{Kind: FaultValueBit, TriggerIndex: 1 << 40, Bit: 3}
	res, err := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 64, Fault: fp}, g)
	if err != nil || res.Outcome != OutcomeOK {
		t.Fatalf("%v %v", err, res)
	}
	if res.Fire.Fired {
		t.Fatal("plan beyond the dynamic stream must not fire")
	}
}

func TestFaultAddrBitHighBitIsDUE(t *testing.T) {
	g := mem.NewGlobal(1 << 20)
	a, _ := g.Alloc(64 * 4)
	bb, _ := g.Alloc(64 * 4)
	o, _ := g.Alloc(64 * 4)
	prog := buildVecAdd(t, a, bb, o)
	fp := &FaultPlan{
		Kind:         FaultAddrBit,
		Filter:       func(op isa.Op) bool { return op == isa.OpLDG },
		TriggerIndex: 5,
		Bit:          28, // far beyond the allocation
	}
	res, err := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 64, Fault: fp}, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeDUE {
		t.Fatal("high address-bit corruption must fault")
	}
}

func TestFaultSkipChangesOutput(t *testing.T) {
	g := mem.NewGlobal(1 << 20)
	a, _ := g.Alloc(64 * 4)
	bb, _ := g.Alloc(64 * 4)
	o, _ := g.Alloc(64 * 4)
	for i := 0; i < 64; i++ {
		g.SetWord(a+uint32(i*4), math.Float32bits(5))
		g.SetWord(bb+uint32(i*4), math.Float32bits(6))
	}
	prog := buildVecAdd(t, a, bb, o)
	fp := &FaultPlan{
		Kind:         FaultSkip,
		Filter:       func(op isa.Op) bool { return op == isa.OpSTG },
		TriggerIndex: 0,
	}
	res, _ := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 64, Fault: fp}, g)
	if res.Outcome != OutcomeOK || !res.Fire.Fired {
		t.Fatalf("skip fault: %+v", res)
	}
	// The first warp's STG was suppressed: 32 outputs missing.
	missing := 0
	for i := 0; i < 64; i++ {
		if g.Word(o+uint32(i*4)) == 0 {
			missing++
		}
	}
	if missing != 32 {
		t.Fatalf("%d outputs missing, want 32 (one suppressed warp store)", missing)
	}
}

func TestFaultRFBit(t *testing.T) {
	g := mem.NewGlobal(1 << 20)
	a, _ := g.Alloc(64 * 4)
	bb, _ := g.Alloc(64 * 4)
	o, _ := g.Alloc(64 * 4)
	prog := buildVecAdd(t, a, bb, o)
	fp := &FaultPlan{
		Kind:         FaultRFBit,
		TriggerIndex: 0, // as early as possible
		Block:        0,
		Thread:       3,
		Reg:          0,
		Bit:          31,
	}
	res, err := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 64, Fault: fp}, g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fire.Fired {
		t.Fatal("RF fault should fire while the block is resident")
	}
}

func TestPredFault(t *testing.T) {
	// Flipping the SETP result of one lane sends it down the wrong path.
	g := mem.NewGlobal(1 << 20)
	oBase, _ := g.Alloc(32 * 4)
	build := func() *isa.Program {
		b := asm.New("pred", asm.O1)
		gr := gid(b)
		p := b.P()
		out := b.R()
		b.ISetp(p, isa.CmpLT, isa.R(gr), isa.ImmInt(16))
		b.Sel(out, p, isa.ImmInt(1), isa.ImmInt(2))
		oAddr := elemAddr(b, gr, oBase, 4)
		b.Stg(oAddr, 0, out)
		b.Exit()
		pr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	fp := &FaultPlan{
		Kind:         FaultPredBit,
		Filter:       func(op isa.Op) bool { return op == isa.OpISETP },
		TriggerIndex: 7,
	}
	res, _ := Run(Config{Device: device.K40c(), Program: build(), GridX: 1, GridY: 1, BlockThreads: 32, Fault: fp}, g)
	if res.Outcome != OutcomeOK || !res.Fire.Fired {
		t.Fatalf("pred fault: %+v", res)
	}
	if got := g.Word(oBase + 7*4); got != 2 {
		t.Fatalf("lane 7 should have taken the wrong path, got %d", got)
	}
	if got := g.Word(oBase + 6*4); got != 1 {
		t.Fatalf("lane 6 should be unaffected, got %d", got)
	}
}

func TestLaunchValidation(t *testing.T) {
	g := mem.NewGlobal(1 << 16)
	prog := buildVecAdd(t, 256, 512, 768)
	if _, err := Run(Config{Device: device.K40c(), Program: prog, GridX: 0, GridY: 1, BlockThreads: 32}, g); err == nil {
		t.Error("zero grid must fail")
	}
	if _, err := Run(Config{Device: device.K40c(), Program: prog, GridX: 1, GridY: 1, BlockThreads: 2000}, g); err == nil {
		t.Error("oversized block must fail")
	}
	if _, err := Run(Config{Device: nil, Program: prog, GridX: 1, GridY: 1, BlockThreads: 32}, g); err == nil {
		t.Error("nil device must fail")
	}
}
