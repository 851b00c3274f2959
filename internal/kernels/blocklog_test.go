package kernels

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
	"gpurel/internal/sim"
	"gpurel/internal/stats"
)

// runLaunchFull re-simulates the program from a fresh build without
// checkpoints, the launches before launch golden and launch with the
// plan, and returns that launch's full-profile result.
func runLaunchFull(t *testing.T, r *Runner, plan *sim.FaultPlan, launch int) *sim.Result {
	t.Helper()
	inst, err := r.Build(r.Dev, r.Opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range inst.Launches[:launch+1] {
		cfg := sim.Config{
			Device: r.Dev, Program: l.Prog,
			GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads,
			MaxCycles: r.goldenCycles[i]*10 + 20_000,
		}
		if i == launch {
			cfg.Fault = plan
		}
		res, err := sim.Run(cfg, inst.Global)
		if err != nil {
			t.Fatal(err)
		}
		if i == launch {
			return res
		}
	}
	return nil
}

// replayFaultLaunch runs only launch launch of a trial of r with plan,
// with the launch's block log recorded, and returns its Result. A
// non-nil trace receives the issues of the launch (sim.Config.Trace).
func replayFaultLaunch(t *testing.T, r *Runner, plan *sim.FaultPlan, launch int, trace io.Writer) sim.Result {
	t.Helper()
	tr := r.trials.Get().(*sim.Trial)
	defer r.trials.Put(tr)
	cfg := r.replayConfig(launch)
	cfg.Fault, cfg.Trace = plan, trace
	res, err := tr.Launch(cfg, r.ckpts[launch], r.boundary(launch+1), func() (*sim.BlockLog, error) { return r.blockLog(launch) })
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// onlyBlock reports whether every issue of a trace is block cta's.
func onlyBlock(trace string, cta int) bool {
	tag := fmt.Sprintf(" cta%03d ", cta)
	for _, line := range strings.Split(strings.TrimSuffix(trace, "\n"), "\n") {
		if !strings.Contains(line, tag) {
			return false
		}
	}
	return trace != ""
}

// TestLogPathKeepsGoldenSchedule pins the scheduling argument behind
// log mode (DESIGN §19): the scheduler reads only each warp's pc
// sequence and static decode, so whenever a fault launch's faulted
// block passes the certificate in log mode, the checkpoint-free full
// run of that launch keeps the golden schedule: golden cycles and
// golden warp-instruction count. Random operation faults land on the
// single-writer launches of six codes on both devices: four
// block-independent ones, QUICKSORT's one launch and BFS's launches
// 3–7, whose blocks read each other's words. Both the accepted and the
// fallen-back trials must occur, and every trial's record must equal
// full re-simulation.
func TestLogPathKeepsGoldenSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("schedule sweep is heavy")
	}
	codes := []struct {
		name     string
		build    Builder
		launches []int // the launches to fault; nil for every one
	}{
		{"FMXM", MxMBuilder(isa.F32), nil},
		{"FLAVA", LavaBuilder(isa.F32), nil},
		{"FGAUSSIAN", GaussianBuilder(), nil},
		{"CCL", CCLBuilder(), nil},
		{"QUICKSORT", QuicksortBuilder(), nil},
		{"BFS", BFSBuilder(), []int{3, 4, 5, 6, 7}},
	}
	const perCode = 30
	accepted, fellBack := 0, 0
	for _, dev := range []*device.Device{device.K40c(), device.V100()} {
		for ci, c := range codes {
			r, err := NewRunner(c.name, c.build, dev, asm.O2)
			if err != nil {
				t.Fatal(err)
			}
			eligible := c.launches
			if eligible == nil {
				for i := range r.Instance().Launches {
					eligible = append(eligible, i)
				}
			}
			for _, i := range eligible {
				if bl, err := r.blockLog(i); err != nil || !bl.Eligible() {
					t.Fatalf("%s launch %d is not single-writer (%v)", c.name, i, err)
				}
			}
			askLogs(t, r)
			rng := stats.NewRNG(0x10c5, uint64(ci))
			for k := 0; k < perCode; k++ {
				launch := eligible[rng.IntN(len(eligible))]
				golden := r.GoldenProfiles()[launch]
				plan := &sim.FaultPlan{
					Kind:         sim.FaultKind(rng.IntN(int(sim.FaultRFBit))),
					TriggerIndex: rng.Uint64() % golden.LaneOps,
					Bit:          rng.IntN(64),
				}
				res := replayFaultLaunch(t, r, plan, launch, nil)
				switch {
				case res.LogFallback != sim.LogOK:
					fellBack++
				case res.Logged:
					accepted++
					if res.Outcome == sim.OutcomeDUE {
						break // the DUE ends the launch early
					}
					full := runLaunchFull(t, r, plan, launch)
					if full.Profile.Cycles != golden.Cycles || full.Profile.WarpInstrs != golden.WarpInstrs {
						t.Errorf("%s on %s launch %d, %v at %d bit %d: log path accepted, but the full run takes %d cycles, %d warp-instructions; golden %d, %d",
							c.name, dev.Name, launch, plan.Kind, plan.TriggerIndex, plan.Bit,
							full.Profile.Cycles, full.Profile.WarpInstrs, golden.Cycles, golden.WarpInstrs)
					}
				}
				rec, err := r.RunTrialWithFault(plan, launch)
				if err != nil {
					t.Fatal(err)
				}
				if full := runWithFaultFull(t, r, plan, launch); !reflect.DeepEqual(rec, full) {
					t.Errorf("%s on %s launch %d, %v at %d bit %d: checkpointed %+v, full re-sim %+v",
						c.name, dev.Name, launch, plan.Kind, plan.TriggerIndex, plan.Bit, rec, full)
				}
			}
		}
	}
	t.Logf("fault launches: %d accepted in log mode, %d fell back", accepted, fellBack)
	if accepted == 0 || fellBack == 0 {
		t.Errorf("%d accepted, %d fell back: the sweep must exercise both", accepted, fellBack)
	}
}

// crossStoreBuilder is a two-block kernel that is block-independent in
// golden: thread t of block c loads in[32c+t] and stores it plus one to
// out[32c+t]. The store's address register first holds a decoy, the
// address of the matching input word of the other block, which the
// real address computation overwrites. A register-index fault that
// moves that computation's result elsewhere leaves the decoy in place,
// so the store lands on a word the other block reads.
func crossStoreBuilder() Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
		const n = 64
		g := mem.NewGlobal(1 << 16)
		in, err := g.Alloc(4 * n)
		if err != nil {
			return nil, err
		}
		out, _ := g.Alloc(4 * n)
		want := make([]uint32, n)
		for i := range want {
			g.SetWord(in+uint32(4*i), uint32(100+i))
			want[i] = uint32(101 + i)
		}
		b := asm.New("crossstore", opt)
		gid := emitGID(b)
		cta := b.R()
		b.S2R(cta, isa.SrCtaidX)
		other := b.R() // gid of the same thread in the other block
		b.IMad(other, isa.R(cta), isa.ImmInt(-64), isa.R(gid))
		b.IAdd(other, isa.R(other), isa.ImmInt(32))
		st, ld, v := b.R(), b.R(), b.R()
		b.IMad(st, isa.R(other), isa.ImmInt(4), isa.ImmInt(int32(in)))
		b.IMad(ld, isa.R(gid), isa.ImmInt(4), isa.ImmInt(int32(in)))
		b.Ldg(v, ld, 0)
		b.IAdd(v, isa.R(v), isa.ImmInt(1))
		b.IMad(st, isa.R(gid), isa.ImmInt(4), isa.ImmInt(int32(out)))
		b.Stg(st, 0, v)
		b.Exit()
		prog, err := b.Build()
		if err != nil {
			return nil, err
		}
		return &Instance{
			Name: "CROSSSTORE", Dev: dev, Global: g,
			Launches: []Launch{{Prog: prog, GridX: 2, GridY: 1, BlockThreads: 32}},
			Check:    checkWords(out, want),
		}, nil
	}
}

// TestFenceTripsOnCrossBlockStore drives register-index faults through
// every trigger of a kernel whose store address can be left pointing at
// the other block's input: such a store must trip the block fence, and
// every record, fenced or not, must equal full re-simulation.
func TestFenceTripsOnCrossBlockStore(t *testing.T) {
	r, err := NewRunner("CROSSSTORE", crossStoreBuilder(), device.K40c(), asm.O0)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := r.blockLog(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bl.Eligible() {
		t.Fatal("the cross-store kernel should be block-independent in golden")
	}
	askLogs(t, r)
	ops := r.GoldenProfiles()[0].LaneOps
	for trigger := uint64(0); trigger < ops; trigger += 7 {
		for bit := 0; bit < 5; bit++ {
			plan := &sim.FaultPlan{Kind: sim.FaultRegIndex, TriggerIndex: trigger, Bit: bit}
			rec, err := r.RunTrialWithFault(plan, 0)
			if err != nil {
				t.Fatal(err)
			}
			if full := runWithFaultFull(t, r, plan, 0); !reflect.DeepEqual(rec, full) {
				t.Errorf("trigger %d bit %d: checkpointed %+v, full re-sim %+v", trigger, bit, rec, full)
			}
		}
	}
	st := r.LogStats()
	t.Logf("%+v", st)
	if st.Fenced == 0 || st.Logged == 0 {
		t.Errorf("log stats %+v: want both fenced and accepted trials", st)
	}
}

// handoffBuilder is a two-block kernel in which block 1 reads words
// block 0 writes: the launch is single-writer but not
// block-independent. Thread t of block 0 stores in[t]+1 to mid[t] and
// out[t], and in[t]+2 to mid[32+t]. Thread t of block 1 loads mid[t]
// at once, before block 0 stores it, and again after a delay loop,
// after the store, and writes the early value plus twice the late one
// to out[32+t]. Block 1 never reads mid[32+t]. With twice, block 0
// stores in[t]+2 to mid[32+t] once more after a delay loop longer than
// block 1's, so block 1's late load comes between block 0's two writes
// of mid[32+t].
func handoffBuilder(twice bool) Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
		const n = 32
		g := mem.NewGlobal(1 << 16)
		// mid comes first, at a 256-byte boundary: flipping bit 7 of the
		// address of mid[t] gives mid[32+t].
		mid, err := g.Alloc(8 * n)
		if err != nil {
			return nil, err
		}
		in, _ := g.Alloc(4 * n)
		out, _ := g.Alloc(8 * n)
		want := make([]uint32, 2*n)
		for i := 0; i < n; i++ {
			g.SetWord(in+uint32(4*i), uint32(100+i))
			want[i] = uint32(101 + i)
			want[n+i] = 2 * uint32(101+i)
		}
		b := asm.New("handoff", opt)
		tid, cta := b.R(), b.R()
		b.S2R(tid, isa.SrTidX)
		b.S2R(cta, isa.SrCtaidX)
		p := b.P()
		b.ISetp(p, isa.CmpEQ, isa.R(cta), isa.ImmInt(0))
		b.IfElse(p, false, func() {
			v, w := b.R(), b.R()
			b.Ldg(v, emitAddr(b, tid, in, 4), 0)
			b.IAdd(v, isa.R(v), isa.ImmInt(1))
			m := emitAddr(b, tid, mid, 4)
			b.Stg(m, 0, v)
			b.IAdd(w, isa.R(v), isa.ImmInt(1))
			b.Stg(m, 4*n, w)
			b.Stg(emitAddr(b, tid, out, 4), 0, v)
			if twice {
				spin, i := b.R(), b.R()
				b.MovImm(spin, 0)
				b.ForCounter(i, 0, 120, asm.LoopOpts{}, func() {
					b.IAdd(spin, isa.R(spin), isa.R(i))
				})
				b.Stg(m, 4*n, w)
			}
		}, func() {
			m := emitAddr(b, tid, mid, 4)
			early, late, spin, i := b.R(), b.R(), b.R(), b.R()
			b.Ldg(early, m, 0)
			b.MovImm(spin, 0)
			b.ForCounter(i, 0, 100, asm.LoopOpts{}, func() {
				b.IAdd(spin, isa.R(spin), isa.R(i))
			})
			b.Ldg(late, m, 0)
			b.IAdd(late, isa.R(late), isa.R(late))
			b.IAdd(late, isa.R(late), isa.R(early))
			b.Stg(emitAddr(b, tid, out+4*n, 4), 0, late)
		})
		b.ReleaseP(p)
		b.Exit()
		prog, err := b.Build()
		if err != nil {
			return nil, err
		}
		return &Instance{
			Name: "HANDOFF", Dev: dev, Global: g,
			Launches: []Launch{{Prog: prog, GridX: 2, GridY: 1, BlockThreads: n}},
			Check:    checkWords(out, want),
		}, nil
	}
}

// TestForeignReadsReplayExactly drives operation faults through the
// triggers of a launch whose block 1 reads block 0's words, before and
// after block 0 writes them. Every record must equal full
// re-simulation, and all four outcomes of the foreign-read and
// write-seq rules (DESIGN §19) must occur. On HANDOFF block 1 replays
// alone and its foreign loads get the golden values; a fault in block 0
// changes a word before block 1 reads it, and the replay falls back;
// and an address fault moves a load of block 1 onto mid[32+t], a word
// of block 0 it does not read in golden, before its one write or past
// it, and the fence resolves the load. On the variant that writes
// mid[32+t] twice, block 1's moved late load falls between the two
// writes, and the fence trips; its delay loop makes it the longer
// launch, so it runs only the address faults onto mid[32+t], at a
// coarser stride.
func TestForeignReadsReplayExactly(t *testing.T) {
	type kind struct {
		kind sim.FaultKind
		bit  int
	}
	var readerAlone, foreign, resolved, fenced int
	for _, v := range []struct {
		twice  bool
		stride uint64
		kinds  []kind
	}{
		{false, 3, []kind{{sim.FaultValueBit, 3}, {sim.FaultAddrBit, 7}, {sim.FaultAddrBit, 2}}},
		{true, 5, []kind{{sim.FaultAddrBit, 7}}},
	} {
		r, err := NewRunner("HANDOFF", handoffBuilder(v.twice), device.K40c(), asm.O0)
		if err != nil {
			t.Fatal(err)
		}
		bl, err := r.blockLog(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bl.Eligible() {
			t.Fatal("the hand-off kernel should be single-writer")
		}
		askLogs(t, r)
		ops := r.GoldenProfiles()[0].LaneOps
		for trigger := uint64(0); trigger < ops; trigger += v.stride {
			for _, k := range v.kinds {
				plan := &sim.FaultPlan{Kind: k.kind, TriggerIndex: trigger, Bit: k.bit}
				var trace strings.Builder
				res := replayFaultLaunch(t, r, plan, 0, &trace)
				switch {
				case res.LogFallback == sim.LogForeignRead:
					foreign++
				case res.LogFallback == sim.LogFenced:
					fenced++
				case res.Resolved > 0:
					resolved++
				case res.Logged && onlyBlock(trace.String(), 1) && res.Outcome == sim.OutcomeOK:
					readerAlone++
				}
				rec, err := r.RunTrialWithFault(plan, 0)
				if err != nil {
					t.Fatal(err)
				}
				if full := runWithFaultFull(t, r, plan, 0); !reflect.DeepEqual(rec, full) {
					t.Errorf("twice %v, %v bit %d at %d: checkpointed %+v, full re-sim %+v", v.twice, plan.Kind, plan.Bit, trigger, rec, full)
				}
			}
		}
		t.Logf("twice %v: %v", v.twice, r.LogStats())
	}
	t.Logf("block 1 alone %d, foreign-read fallbacks %d, resolved %d, fenced %d", readerAlone, foreign, resolved, fenced)
	if readerAlone == 0 || foreign == 0 || resolved == 0 || fenced == 0 {
		t.Errorf("block 1 alone %d, foreign-read fallbacks %d, resolved %d, fenced %d: want all four", readerAlone, foreign, resolved, fenced)
	}
}

// relayBuilder is a two-launch kernel whose second launch reads a word
// before its writer writes it. Launch 0 (one block) stores in[t]+1 to
// mid[t]. In launch 1, block 1 copies mid[t] to out[t] at once, and
// block 0 stores 7 to mid[t] after a delay loop. A fault in launch 0
// leaves mid[t] dirty at launch 1's boundary: block 1 then replays
// alone and must read the dirty value, not the golden one, while block
// 0 writes mid[t] without reading it and runs golden. With both, block
// 0 first copies mid[t] to out[32+t], so the dirty words have two
// reader blocks in a launch with foreign reads.
func relayBuilder(both bool) Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
		const n = 32
		outs := 1
		if both {
			outs = 2
		}
		g := mem.NewGlobal(1 << 16)
		in, err := g.Alloc(4 * n)
		if err != nil {
			return nil, err
		}
		mid, _ := g.Alloc(4 * n)
		out, _ := g.Alloc(4 * n * outs)
		wantMid, wantOut := make([]uint32, n), make([]uint32, n*outs)
		for i := 0; i < n; i++ {
			g.SetWord(in+uint32(4*i), uint32(100+i))
			wantMid[i] = 7
			for k := 0; k < outs; k++ {
				wantOut[k*n+i] = uint32(101 + i)
			}
		}
		b := asm.New("relay0", opt)
		tid, v := b.R(), b.R()
		b.S2R(tid, isa.SrTidX)
		b.Ldg(v, emitAddr(b, tid, in, 4), 0)
		b.IAdd(v, isa.R(v), isa.ImmInt(1))
		b.Stg(emitAddr(b, tid, mid, 4), 0, v)
		b.Exit()
		fill, err := b.Build()
		if err != nil {
			return nil, err
		}
		b = asm.New("relay1", opt)
		tid, cta := b.R(), b.R()
		b.S2R(tid, isa.SrTidX)
		b.S2R(cta, isa.SrCtaidX)
		m := emitAddr(b, tid, mid, 4)
		p := b.P()
		b.ISetp(p, isa.CmpEQ, isa.R(cta), isa.ImmInt(0))
		b.IfElse(p, false, func() {
			if both {
				v := b.R()
				b.Ldg(v, m, 0)
				b.Stg(emitAddr(b, tid, out+4*n, 4), 0, v)
			}
			spin, i, seven := b.R(), b.R(), b.R()
			b.MovImm(spin, 0)
			b.ForCounter(i, 0, 100, asm.LoopOpts{}, func() {
				b.IAdd(spin, isa.R(spin), isa.R(i))
			})
			b.MovImm(seven, 7)
			b.Stg(m, 0, seven)
		}, func() {
			v := b.R()
			b.Ldg(v, m, 0)
			b.Stg(emitAddr(b, tid, out, 4), 0, v)
		})
		b.ReleaseP(p)
		b.Exit()
		relay, err := b.Build()
		if err != nil {
			return nil, err
		}
		return &Instance{
			Name: "RELAY", Dev: dev, Global: g,
			Launches: []Launch{
				{Prog: fill, GridX: 1, GridY: 1, BlockThreads: n},
				{Prog: relay, GridX: 2, GridY: 1, BlockThreads: n},
			},
			Check: checkAll(checkWords(mid, wantMid), checkWords(out, wantOut)),
		}, nil
	}
}

// TestForeignReadBeforeWriteSeesDirtyWord drives value faults through
// every trigger of RELAY's first launch. Its second launch replays only
// block 1, which reads mid[t] before block 0 writes it: the replay must
// give block 1 the dirty value, so the corrupted words reach out[] as
// SDCs, exactly as in full re-simulation. On the variant whose block 0
// reads mid[t] too, the dirty words reach both blocks of a launch with
// foreign reads: launch 1 falls back with sim.LogMultiReader before any
// log-mode issue, and every record still equals full re-simulation.
func TestForeignReadBeforeWriteSeesDirtyWord(t *testing.T) {
	for _, both := range []bool{false, true} {
		r, err := NewRunner("RELAY", relayBuilder(both), device.K40c(), asm.O0)
		if err != nil {
			t.Fatal(err)
		}
		if bl, err := r.blockLog(1); err != nil || !bl.Eligible() {
			t.Fatalf("RELAY's second launch should be single-writer (%v)", err)
		}
		askLogs(t, r)
		sdc := 0
		for trigger := uint64(0); trigger < r.GoldenProfiles()[0].LaneOps; trigger++ {
			plan := &sim.FaultPlan{Kind: sim.FaultValueBit, TriggerIndex: trigger, Bit: int(trigger % 32)}
			rec, err := r.RunTrialWithFault(plan, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Outcome == SDC {
				sdc++
			}
			if full := runWithFaultFull(t, r, plan, 0); !reflect.DeepEqual(rec, full) {
				t.Errorf("both %v, trigger %d: checkpointed %+v, full re-sim %+v", both, trigger, rec, full)
			}
			if !both {
				continue
			}
			res, trace, ok := tracedLaterLaunch(t, r, plan)
			if issues := strings.Count(trace, "\n"); ok && (res.LogFallback != sim.LogMultiReader || uint64(issues) != res.Profile.WarpInstrs) {
				t.Errorf("trigger %d: launch 1 fell back for %v after %d traced issues, %d on the cycle engine; want sim.LogMultiReader and none in log mode",
					trigger, res.LogFallback, issues, res.Profile.WarpInstrs)
			}
		}
		st := r.LogStats()
		if sdc == 0 || st.Logged == 0 || both != (st.MultiReader > 0) {
			t.Errorf("both %v: %d SDCs, log stats %v: want SDCs, log-mode launches, and several-reader fallbacks only with both", both, sdc, st)
		}
	}
}

// tracedLaterLaunch runs a trial of r with plan in launch 0, then
// launch 1 with its issues traced (sim.Config.Trace), and returns
// launch 1's result and trace; ok is false when the trial ended in
// launch 0.
func tracedLaterLaunch(t *testing.T, r *Runner, plan *sim.FaultPlan) (res sim.Result, trace string, ok bool) {
	t.Helper()
	tr := r.trials.Get().(*sim.Trial)
	defer r.trials.Put(tr)
	cfg := r.replayConfig(0)
	cfg.Fault = plan
	res, err := tr.Launch(cfg, r.ckpts[0], r.boundary(1), func() (*sim.BlockLog, error) { return r.blockLog(0) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == sim.OutcomeDUE || res.RejoinedGolden || tr.Clean() {
		return res, "", false
	}
	var b strings.Builder
	cfg = r.replayConfig(1)
	cfg.Trace = &b
	if res, err = tr.Launch(cfg, r.ckpts[1], r.boundary(2), func() (*sim.BlockLog, error) { return r.blockLog(1) }); err != nil {
		t.Fatal(err)
	}
	return res, b.String(), true
}

// redSumBuilder is a two-launch, two-block kernel whose blocks both
// RED.ADD into one word, so neither launch is single-writer and every
// launch runs on the cycle engine (sim.LogIneligible). In launch 0
// thread t of block c adds in[32c+t] to sum[0]; in launch 1 it loads
// sum[0] and adds in[32c+t]+sum[0] to sum[1].
func redSumBuilder() Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
		const n = 64
		g := mem.NewGlobal(1 << 16)
		in, err := g.Alloc(4 * n)
		if err != nil {
			return nil, err
		}
		sum, _ := g.Alloc(8)
		var s0 uint32
		for i := 0; i < n; i++ {
			g.SetWord(in+uint32(4*i), uint32(100+i))
			s0 += uint32(100 + i)
		}
		var launches []Launch
		for l := uint32(0); l < 2; l++ {
			b := asm.New(fmt.Sprintf("redsum%d", l), opt)
			gid := emitGID(b)
			v, base := b.R(), b.R()
			b.Ldg(v, emitAddr(b, gid, in, 4), 0)
			b.MovImm(base, sum)
			if l == 1 {
				s := b.R()
				b.Ldg(s, base, 0)
				b.IAdd(v, isa.R(v), isa.R(s))
			}
			b.RedAdd(base, 4*l, v)
			b.Exit()
			prog, err := b.Build()
			if err != nil {
				return nil, err
			}
			launches = append(launches, Launch{Prog: prog, GridX: 2, GridY: 1, BlockThreads: n / 2})
		}
		return &Instance{
			Name: "REDSUM", Dev: dev, Global: g, Launches: launches,
			Check: checkWords(sum, []uint32{s0, s0 + n*s0}),
		}, nil
	}
}

// gatherBuilder is a two-launch kernel whose second launch gathers
// through indices the first writes. Launch 0 (one block) stores in[t]
// to idx[t]. In launch 1 thread t of block c loads idx[t] and stores
// data[idx[t]]+c to out[32c+t]. Both blocks of launch 1 read every
// index, so a fault on one in launch 0 replays both, one after the
// other; an index flipped far out of range raises a DUE in the first.
func gatherBuilder() Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
		const n = 32
		g := mem.NewGlobal(1 << 16)
		in, err := g.Alloc(4 * n)
		if err != nil {
			return nil, err
		}
		idx, _ := g.Alloc(4 * n)
		data, _ := g.Alloc(4 * n)
		out, _ := g.Alloc(4 * 2 * n)
		wantIdx, wantOut := make([]uint32, n), make([]uint32, 2*n)
		for i := 0; i < n; i++ {
			k := uint32(n - 1 - i)
			g.SetWord(in+uint32(4*i), k)
			g.SetWord(data+uint32(4*i), uint32(1000+i))
			wantIdx[i] = k
			wantOut[i], wantOut[n+i] = 1000+k, 1001+k
		}
		b := asm.New("gather0", opt)
		tid, v := b.R(), b.R()
		b.S2R(tid, isa.SrTidX)
		b.Ldg(v, emitAddr(b, tid, in, 4), 0)
		b.Stg(emitAddr(b, tid, idx, 4), 0, v)
		b.Exit()
		fill, err := b.Build()
		if err != nil {
			return nil, err
		}
		b = asm.New("gather1", opt)
		tid, cta, k, v := b.R(), b.R(), b.R(), b.R()
		b.S2R(tid, isa.SrTidX)
		b.S2R(cta, isa.SrCtaidX)
		b.Ldg(k, emitAddr(b, tid, idx, 4), 0)
		b.Ldg(v, emitAddr(b, k, data, 4), 0)
		b.IAdd(v, isa.R(v), isa.R(cta))
		b.Stg(emitAddr(b, emitGID(b), out, 4), 0, v)
		b.Exit()
		gather, err := b.Build()
		if err != nil {
			return nil, err
		}
		return &Instance{
			Name: "GATHER", Dev: dev, Global: g,
			Launches: []Launch{
				{Prog: fill, GridX: 1, GridY: 1, BlockThreads: n},
				{Prog: gather, GridX: 2, GridY: 1, BlockThreads: n},
			},
			Check: checkAll(checkWords(idx, wantIdx), checkWords(out, wantOut)),
		}, nil
	}
}
