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
	e, err := newEngine(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	seq := []*LaunchImage{{Mem: g.Snapshot()}}
	e.rec = &recorder{interval: 256, max: maxImages, nextAt: 256}
	res := e.run()
	seq = append(seq, e.rec.images...)
	e.release()
	if res.Outcome != OutcomeOK {
		t.Fatalf("golden run: %s", res.DUEReason)
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
			plan := FaultPlan{Kind: FaultValueBit, Filter: f.filter, TriggerIndex: trigger, Bit: int(trigger % 64)}
			cycle := plan
			cfg.Fault = &cycle
			e, err := newEngine(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			e.restoreImage(seq[0])
			e.simulate()
			want := e.fired
			e.release()

			logged := plan
			cfg.Fault = &logged
			start := startImage(seq, &logged)
			if start > 0 {
				fromImage++
			}
			e, err = newEngine(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			blk, _, err := e.replayFaulted(bl, &ls, seq[start])
			got := e.fired
			e.release()
			if err != nil {
				t.Fatal(err)
			}
			ok := blk != nil
			switch {
			case ok != cycle.Fired || ok != (trigger < total):
				t.Fatalf("%s trigger %d of %d: log mode fires %v, the cycle engine %v", f.name, trigger, total, ok, cycle.Fired)
			case !ok:
			case got != want || logged.FiredBit != cycle.FiredBit || logged.FiredWidth != cycle.FiredWidth:
				t.Fatalf("%s trigger %d from image %d: log mode fires at %+v bit %d/%d, the cycle engine at %+v bit %d/%d",
					f.name, trigger, start, got, logged.FiredBit, logged.FiredWidth, want, cycle.FiredBit, cycle.FiredWidth)
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
