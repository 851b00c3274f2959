package sim

import (
	"math"
	"strings"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// buildFireMap builds a kernel whose lane counts vary from issue to
// issue: a partial second warp, a loop whose body diverges on the lane
// index, predicated and control instructions, and FP, integer and
// memory ops. It takes 4 KB of shared memory, more than half a K40c
// SM has, so one block fits an SM and the blocks past the first wave
// wait for residency.
func buildFireMap(t *testing.T, in, out uint32) *isa.Program {
	t.Helper()
	b := asm.New("firemap", asm.O1)
	b.AllocShared(4 << 10)
	g := gid(b)
	x, acc, k := b.R(), b.R(), b.R()
	b.Ldg(x, elemAddr(b, g, in, 4), 0)
	b.MovImm(acc, math.Float32bits(1))
	b.MovImm(k, 0)
	lane := b.R()
	b.And(lane, isa.R(g), isa.ImmInt(3))
	i := b.R()
	b.ForCounter(i, 0, 2, asm.LoopOpts{}, func() {
		p := b.P()
		b.ISetp(p, isa.CmpLE, isa.R(lane), isa.R(i))
		b.IfElse(p, false, func() {
			b.FFma(acc, isa.R(acc), isa.R(x), isa.R(acc))
		}, func() {
			b.FMul(acc, isa.R(acc), isa.R(x))
			b.IAdd(k, isa.R(k), isa.R(lane))
		})
		b.ReleaseP(p)
	})
	p := b.P()
	b.ISetp(p, isa.CmpEQ, isa.R(lane), isa.ImmInt(0))
	b.Guarded(p, false, func() {
		b.FAdd(acc, isa.R(acc), isa.R(acc))
	})
	b.IAdd(acc, isa.R(acc), isa.R(k))
	b.Stg(elemAddr(b, g, out, 4), 0, acc)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// goldenImages runs the launch golden with sub-launch images every 256
// lane-ops, a denser spacing than RunGolden's, so a small launch gets
// many start images.
func goldenImages(t *testing.T, cfg Config, g *mem.Global) (*Profile, []*LaunchImage) {
	t.Helper()
	e, err := newEngine(cfg, g, true)
	if err != nil {
		t.Fatal(err)
	}
	seq := []*LaunchImage{{Mem: g.Snapshot()}}
	e.rec = &recorder{interval: 256, max: maxImages, nextAt: 256}
	res := e.run()
	seq = append(seq, e.rec.images...)
	e.release()
	if res.Outcome != OutcomeOK {
		t.Fatalf("golden run: %s", res.DUEReason())
	}
	return &res.Profile, seq
}

// TestFireSiteMatchesCycleEngine pins the trigger mapping of log-mode
// fault launches: for every filtered trigger of a small launch, under
// the nil, GPR-writing and FP-class filters, the block log maps the
// trigger from the plan's start image to the block and issue where the
// cycle engine, run from the launch boundary, fires it; and the block
// replayed alone from the start image, with the seeded trigger clock,
// fires on the same lane and flips the same bit. A trigger past the
// launch's last filtered lane-op fires in neither. The device is a
// K40c cut to two SMs, so three of the five blocks start after an
// image.
func TestFireSiteMatchesCycleEngine(t *testing.T) {
	const blocks, threads = 5, 40
	g := mem.NewGlobal(1 << 20)
	in, _ := g.Alloc(blocks * threads * 4)
	out, _ := g.Alloc(blocks * threads * 4)
	for i := 0; i < blocks*threads; i++ {
		g.SetWord(in+uint32(4*i), math.Float32bits(1+float32(i%7)/8))
	}
	dev := *device.K40c()
	dev.NumSMs = 2
	cfg := Config{Device: &dev, Program: buildFireMap(t, in, out), GridX: blocks, GridY: 1, BlockThreads: threads}
	golden, seq := goldenImages(t, cfg, g)
	final := g.Snapshot()
	if len(seq) < 8 {
		t.Fatalf("%d checkpoints; want sub-launch images to start from", len(seq))
	}
	bl, err := RecordBlockLog(cfg, seq[0], golden.WarpInstrs, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bl.Eligible() {
		t.Fatal("the fire-map kernel should be single-writer")
	}
	// A flipped loop counter can hang the faulted run; the watchdog
	// ends it soon after the fire.
	cfg.MaxCycles = 4 * golden.Cycles
	fp := func(op isa.Op) bool {
		c := op.ClassOf()
		return c == isa.ClassFMA || c == isa.ClassMUL || c == isa.ClassADD
	}
	var ls logScratch
	for _, f := range []struct {
		name   string
		filter func(isa.Op) bool
	}{{"all", nil}, {"gpr", isa.Op.WritesGPR}, {"fp", fp}} {
		var total uint64
		for op, n := range golden.PerOpLane {
			if !op.IsControl() && (f.filter == nil || f.filter(op)) {
				total += n
			}
		}
		fromImage := 0
		for trigger := uint64(0); trigger <= total; trigger++ {
			plan := &FaultPlan{Kind: FaultValueBit, Filter: f.filter, TriggerIndex: trigger, Bit: int(trigger % 64)}
			cfg.Fault = plan
			e, err := newEngine(cfg, g, false)
			if err != nil {
				t.Fatal(err)
			}
			e.restoreImage(seq[0])
			e.simulate()
			want := e.fired
			e.release()

			start := startImage(seq, plan)
			if start > 0 {
				fromImage++
			}
			e, err = newEngine(cfg, g, false)
			if err != nil {
				t.Fatal(err)
			}
			blk, _, err := e.replayFaulted(bl, &ls, seq[start], final)
			got := e.fired
			e.release()
			if err != nil {
				t.Fatal(err)
			}
			ok := blk != nil
			switch {
			case ok != want.Fired || ok != (trigger < total):
				t.Fatalf("%s trigger %d of %d: log mode fires %v, the cycle engine %v", f.name, trigger, total, ok, want.Fired)
			case !ok:
			case got != want:
				t.Fatalf("%s trigger %d from image %d: log mode fires at %+v, the cycle engine at %+v",
					f.name, trigger, start, got, want)
			}
		}
		if fromImage == 0 {
			t.Errorf("%s: no trigger started from a sub-launch image", f.name)
		}
	}
}

// TestLogDisagreementIsAnError bumps one recorded lane count of a block
// log, so the log maps a trigger onto an issue the fault does not fire
// on: the fault launch step must return an error, which fails the
// trial, instead of panicking. The intact log replays the same plan.
func TestLogDisagreementIsAnError(t *testing.T) {
	const blocks, threads = 5, 40
	g := mem.NewGlobal(1 << 20)
	in, _ := g.Alloc(blocks * threads * 4)
	out, _ := g.Alloc(blocks * threads * 4)
	cfg := Config{Device: device.K40c(), Program: buildFireMap(t, in, out), GridX: blocks, GridY: 1, BlockThreads: threads}
	golden, seq := goldenImages(t, cfg, g)
	final := g.Snapshot()
	bl, err := RecordBlockLog(cfg, seq[0], golden.WarpInstrs, false)
	if err != nil || !bl.Eligible() {
		t.Fatalf("fire-map log: eligible %v, %v", bl.Eligible(), err)
	}
	// The first issue that advances the trigger clock; the trigger is
	// the lane-op just past it.
	k := bl.order[0]
	for s := 1; bl.lanes[k] == 0; s++ {
		k = bl.order[s]
	}
	plan := FaultPlan{Kind: FaultValueBit, TriggerIndex: uint64(bl.lanes[k])}
	launch := func() error {
		p := plan
		cfg.Fault = &p
		_, err := NewTrial(final.AllocatedBytes()).Launch(cfg, seq[:1], final, func() (*BlockLog, error) { return bl, nil })
		return err
	}
	if err := launch(); err != nil {
		t.Fatalf("intact log: %v", err)
	}
	bl.lanes[k]++
	if err := launch(); err == nil || !strings.Contains(err.Error(), "disagrees with golden") {
		t.Fatalf("log with a bumped lane count gave %v, want a disagreement error", err)
	}
}

// strayLaunch is a two-block launch for the serial fence: thread g
// loads arr[lidx[g]] and stores it, plus one, to arr[sidx[g]]. In
// golden block c reads arr[32c, 32c+32) and writes arr[64+32c,
// 96+32c), and no block accesses arr[128, 192). The launch has no
// foreign reads, so a replay of both blocks runs them one after the
// other.
type strayLaunch struct {
	loggedLaunch
	sidx, lidx, arr uint32
}

// loggedLaunch is a launch of a test kernel with its golden boundary,
// its golden memory after it, and its block log, reader masks included.
type loggedLaunch struct {
	cfg            Config
	boundary, next *mem.Snapshot
	bl             *BlockLog
}

// recordLaunch runs the launch golden on g, which holds its inputs, and
// records its block log.
func recordLaunch(t *testing.T, cfg Config, g *mem.Global) loggedLaunch {
	t.Helper()
	l := loggedLaunch{cfg: cfg, boundary: g.Snapshot()}
	res, err := Run(cfg, g)
	if err != nil || res.Outcome != OutcomeOK {
		t.Fatalf("golden run: %v %v", res, err)
	}
	l.next = g.Snapshot()
	l.bl, err = RecordBlockLog(cfg, &LaunchImage{Mem: l.boundary}, res.Profile.WarpInstrs, true)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func newStrayLaunch(t *testing.T) *strayLaunch {
	t.Helper()
	const blocks, threads = 2, 32
	g := mem.NewGlobal(1 << 20)
	s := &strayLaunch{}
	s.sidx, _ = g.Alloc(blocks * threads * 4)
	s.lidx, _ = g.Alloc(blocks * threads * 4)
	s.arr, _ = g.Alloc(192 * 4)
	for i := uint32(0); i < blocks*threads; i++ {
		g.SetWord(s.lidx+4*i, i)
		g.SetWord(s.sidx+4*i, 64+i)
		g.SetWord(s.arr+4*i, 7*i)
	}
	b := asm.New("stray", asm.O1)
	gi := gid(b)
	si, li, v := b.R(), b.R(), b.R()
	b.Ldg(si, elemAddr(b, gi, s.sidx, 4), 0)
	b.Ldg(li, elemAddr(b, gi, s.lidx, 4), 0)
	b.Ldg(v, elemAddr(b, li, s.arr, 4), 0)
	b.IAdd(v, isa.R(v), isa.ImmInt(1))
	b.Stg(elemAddr(b, si, s.arr, 4), 0, v)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s.loggedLaunch = recordLaunch(t, Config{Device: device.K40c(), Program: prog, GridX: blocks, GridY: 1, BlockThreads: threads}, g)
	if !s.bl.Eligible() || len(s.bl.frd) != 0 {
		t.Fatalf("stray launch: eligible %v with %d foreign reads; want eligible with none", s.bl.Eligible(), len(s.bl.frd))
	}
	return s
}

// replay runs the launch as a later launch of a trial whose dirty set
// sets each word at addr to its value, checks the result against Run
// on the same memory, and returns the trial's launch result.
func (s *loggedLaunch) replay(t *testing.T, set map[uint32]uint32) Result {
	t.Helper()
	tr := NewTrial(s.boundary.AllocatedBytes())
	want := mem.NewGlobal(s.boundary.AllocatedBytes())
	want.Restore(s.boundary)
	for addr, v := range set {
		tr.dirty = append(tr.dirty, dirtyWord{addr / 4, v})
		want.SetWord(addr, v)
	}
	got, err := tr.Launch(s.cfg, []*LaunchImage{{Mem: s.boundary}}, s.next, func() (*BlockLog, error) { return s.bl, nil })
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(s.cfg, want)
	if err != nil {
		t.Fatal(err)
	}
	if got.Outcome != full.Outcome || got.DUEMode != full.DUEMode {
		t.Fatalf("trial outcome %v (%v), Run %v (%v)", got.Outcome, got.DUEMode, full.Outcome, full.DUEMode)
	}
	if got.Outcome == OutcomeOK {
		m := tr.Memory(s.next)
		for addr := uint32(0); int(addr) < s.boundary.AllocatedBytes(); addr += 4 {
			if v, w := m.Word(addr), want.Word(addr); v != w {
				t.Fatalf("word %#x: trial %#x, Run %#x", addr, v, w)
			}
		}
	}
	return got
}

// TestSerialReplayFence pins the serial log mode of a launch without
// foreign reads: two replayed blocks run one after another when neither
// can see the other's stores, and the fence trips whenever one could,
// in either block order: on any store to a word the block does not
// write in golden, and on a load of the other block's written word. A
// load of a word no block accesses stays in log mode. A DUE in the
// second block falls back as a multi-block DUE. Every result equals Run
// on the trial's memory.
func TestSerialReplayFence(t *testing.T) {
	s := newStrayLaunch(t)
	const blockB = 32 // the first thread of block 1
	cases := []struct {
		name string
		set  map[uint32]uint32
		want LogFallback
	}{
		{"no stray access", map[uint32]uint32{s.arr: 99, s.arr + 4*blockB: 98}, LogOK},
		{"block 1 loads a no-accessor word",
			map[uint32]uint32{s.arr: 99, s.lidx + 4*blockB: 128}, LogOK},
		{"block 0 stores a no-accessor word no block loads",
			map[uint32]uint32{s.sidx: 128, s.arr + 4*blockB: 98}, LogFenced},
		{"block 0 stores a no-accessor word block 1 loads",
			map[uint32]uint32{s.sidx: 128, s.lidx + 4*blockB: 128}, LogFenced},
		{"block 1 stores a no-accessor word block 0 loads",
			map[uint32]uint32{s.sidx + 4*blockB: 128, s.lidx: 128}, LogFenced},
		{"block 0 stores a word only it reads, block 1 loads it",
			map[uint32]uint32{s.sidx: 0, s.lidx + 4*blockB: 0}, LogFenced},
		{"block 1 loads a word block 0 writes",
			map[uint32]uint32{s.arr: 99, s.lidx + 4*blockB: 64}, LogFenced},
		{"DUE in the second block",
			map[uint32]uint32{s.arr: 99, s.lidx + 4*blockB: 1 << 28}, LogMultiDUE},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := s.replay(t, c.set)
			if res.LogFallback != c.want {
				t.Fatalf("fallback %v, want %v", res.LogFallback, c.want)
			}
			if c.want == LogOK && (!res.Logged || res.Replayed != 2) {
				t.Fatalf("logged %v with %d blocks; want both blocks in log mode", res.Logged, res.Replayed)
			}
			if c.want == LogMultiDUE && res.Outcome != OutcomeDUE {
				t.Fatalf("outcome %v, want a DUE", res.Outcome)
			}
		})
	}
}

// seqsLaunch is a two-block launch for the write-seq rules of a lone
// replayed block. Thread g runs, with delay loops of n1, n2 and n3
// iterations (block 0: 10, 20, 1; block 1: 5, 15, 40):
//
//	x := arr[ld1[g]]; delay n1; arr[wr[g]] = x+1
//	delay n2; y := arr[ld2[g]]; arr[wr[g]] = x+y
//	delay n3; z := arr[ld3[g]]; arr[late[g]] = y+z
//	arr[128+g] = arr[rel[g]]; atomically arr[red[g]] += z
//
// In golden ld1 = ld2 = ld3 = g and wr = late = rel = red = 64+g: block
// c reads arr[32c, 32c+32), writes each word of arr[64+32c, 96+32c)
// three times, reloads it and adds to it, and writes arr[128+32c,
// 160+32c). Block
// 1's first load comes before block 0's first write, its second between
// block 0's first two writes, and its third after block 0's last
// access. The launch has no foreign reads.
type seqsLaunch struct {
	loggedLaunch
	ld1, ld2, ld3, wr, late, rel, red, arr uint32
}

func newSeqsLaunch(t *testing.T) *seqsLaunch {
	t.Helper()
	const blocks, threads = 2, 32
	g := mem.NewGlobal(1 << 20)
	s := &seqsLaunch{}
	for _, p := range []*uint32{&s.ld1, &s.ld2, &s.ld3, &s.wr, &s.late, &s.rel, &s.red} {
		*p, _ = g.Alloc(blocks * threads * 4)
	}
	s.arr, _ = g.Alloc(192 * 4)
	for i := uint32(0); i < blocks*threads; i++ {
		for _, a := range []uint32{s.ld1, s.ld2, s.ld3} {
			g.SetWord(a+4*i, i)
		}
		for _, a := range []uint32{s.wr, s.late, s.rel, s.red} {
			g.SetWord(a+4*i, 64+i)
		}
	}
	for i := uint32(0); i < 192; i++ {
		g.SetWord(s.arr+4*i, 1000+7*i)
	}
	b := asm.New("seqs", asm.O1)
	gi := gid(b)
	cta, n := b.R(), b.R()
	b.S2R(cta, isa.SrCtaidX)
	p := b.P()
	delay := func(label string, base, perBlock int32) {
		b.IMad(n, isa.R(cta), isa.ImmInt(perBlock), isa.ImmInt(base))
		b.Label(label)
		b.IAdd(n, isa.R(n), isa.ImmInt(-1))
		b.ISetp(p, isa.CmpGT, isa.R(n), isa.ImmInt(0))
		b.BraIf(p, false, label)
	}
	// elem emits the address of arr[idx[g]].
	elem := func(idx uint32) isa.Reg {
		i := b.R()
		b.Ldg(i, elemAddr(b, gi, idx, 4), 0)
		return elemAddr(b, i, s.arr, 4)
	}
	x, y, z, v := b.R(), b.R(), b.R(), b.R()
	b.Ldg(x, elem(s.ld1), 0)
	delay("d1", 10, -5)
	b.IAdd(v, isa.R(x), isa.ImmInt(1))
	b.Stg(elem(s.wr), 0, v)
	delay("d2", 20, -5)
	b.Ldg(y, elem(s.ld2), 0)
	b.IAdd(v, isa.R(x), isa.R(y))
	b.Stg(elem(s.wr), 0, v)
	delay("d3", 1, 39)
	b.Ldg(z, elem(s.ld3), 0)
	b.IAdd(v, isa.R(y), isa.R(z))
	b.Stg(elem(s.late), 0, v)
	b.Ldg(v, elem(s.rel), 0)
	b.Stg(elemAddr(b, gi, s.arr+128*4, 4), 0, v)
	b.RedAdd(elem(s.red), 0, z)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s.loggedLaunch = recordLaunch(t, Config{Device: device.K40c(), Program: prog, GridX: blocks, GridY: 1, BlockThreads: threads}, g)
	if !s.bl.Eligible() || len(s.bl.frd) != 0 {
		t.Fatalf("seqs launch: eligible %v with %d foreign reads; want eligible with none", s.bl.Eligible(), len(s.bl.frd))
	}
	return s
}

// TestFenceResolvesFromWriteSeqs pins the fence rules a lone replayed
// block resolves from golden write seqs (DESIGN §19): block 1, the one
// reader of a dirty index, loads block 0's word arr[64] before its first
// golden write, or past its last golden access, or stores to it past
// its last access and reloads its own store, or adds to it atomically
// past its last access, and stays in log mode; a
// load between block 0's writes trips the fence. With a dirty word
// block 0 reads as well, both blocks replay one after another, and each
// of those accesses trips the fence. Every result equals Run on the
// trial's memory, the stored word included.
func TestFenceResolvesFromWriteSeqs(t *testing.T) {
	s := newSeqsLaunch(t)
	const b1 = 4 * 32     // the first thread of block 1, as a byte offset
	const w0 = 64         // block 0's first written word of arr
	dirty0 := s.arr + 4*0 // a word only block 0 reads
	cases := []struct {
		name string
		set  map[uint32]uint32
		want LogFallback
	}{
		{"load before the first write", map[uint32]uint32{s.ld1 + b1: w0}, LogOK},
		{"load past the last access", map[uint32]uint32{s.ld3 + b1: w0}, LogOK},
		{"store past the last access", map[uint32]uint32{s.late + b1: w0}, LogOK},
		{"reload of its own resolved store", map[uint32]uint32{s.late + b1: w0, s.rel + b1: w0}, LogOK},
		{"atomic past the last access", map[uint32]uint32{s.red + b1: w0}, LogOK},
		{"load between two writes", map[uint32]uint32{s.ld2 + b1: w0}, LogFenced},
		{"two blocks: load before the first write", map[uint32]uint32{dirty0: 5, s.ld1 + b1: w0}, LogFenced},
		{"two blocks: load past the last access", map[uint32]uint32{dirty0: 5, s.ld3 + b1: w0}, LogFenced},
		{"two blocks: store past the last access", map[uint32]uint32{dirty0: 5, s.late + b1: w0}, LogFenced},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := s.replay(t, c.set)
			if res.LogFallback != c.want {
				t.Fatalf("fallback %v, want %v", res.LogFallback, c.want)
			}
			if c.want == LogOK && (!res.Logged || res.Replayed != 1 || res.Resolved == 0) {
				t.Fatalf("logged %v with %d blocks and %d resolved accesses; want block 1 alone in log mode, resolved", res.Logged, res.Replayed, res.Resolved)
			}
		})
	}
	if got := s.replay(t, map[uint32]uint32{dirty0: 5}); !got.Logged || got.Replayed != 1 || got.Resolved != 0 {
		t.Fatalf("block 0 alone: logged %v with %d blocks, %d resolved; want it alone in log mode, nothing resolved", got.Logged, got.Replayed, got.Resolved)
	}
}
