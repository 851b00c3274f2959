package kernels

import (
	"reflect"
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

// TestLogPathKeepsGoldenSchedule pins the scheduling argument behind
// log mode (DESIGN §19): the scheduler reads only each warp's pc
// sequence and static decode, so whenever a fault launch's faulted
// block passes the certificate in log mode, the checkpoint-free full
// run of that launch keeps the golden schedule: golden cycles and
// golden warp-instruction count. Random operation faults land on the
// block-independent launches of four codes on both devices; both the
// accepted and the fallen-back trials must occur, and every trial's
// record must equal full re-simulation.
func TestLogPathKeepsGoldenSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("schedule sweep is heavy")
	}
	codes := []struct {
		name  string
		build Builder
	}{
		{"FMXM", MxMBuilder(isa.F32)},
		{"FLAVA", LavaBuilder(isa.F32)},
		{"FGAUSSIAN", GaussianBuilder()},
		{"CCL", CCLBuilder()},
	}
	const perCode = 30
	accepted, fellBack := 0, 0
	for _, dev := range []*device.Device{device.K40c(), device.V100()} {
		for ci, c := range codes {
			r, err := NewRunner(c.name, c.build, dev, asm.O2)
			if err != nil {
				t.Fatal(err)
			}
			var eligible []int
			for i := range r.Instance().Launches {
				bl, err := r.blockLog(i)
				if err != nil {
					t.Fatal(err)
				}
				if bl.Eligible() {
					eligible = append(eligible, i)
				}
			}
			if len(eligible) == 0 {
				t.Fatalf("%s has no block-independent launch", c.name)
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
				bl, _ := r.blockLog(launch)
				g := r.pool.Get()
				var ls sim.LogScratch
				cfg := r.replayConfig(launch)
				cfg.Fault = clonePlan(plan)
				res, err := sim.Replay(cfg, g, r.ckpts[launch], bl, &ls)
				r.pool.Put(g)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case res.LogFallback != sim.LogOK:
					fellBack++
				case res.LogBlocks == 1:
					accepted++
					if res.Outcome == sim.OutcomeDUE {
						break // the DUE ends the launch early
					}
					full := runLaunchFull(t, r, clonePlan(plan), launch)
					if full.Profile.Cycles != golden.Cycles || full.Profile.WarpInstrs != golden.WarpInstrs {
						t.Errorf("%s on %s launch %d, %v at %d bit %d: log path accepted, but the full run takes %d cycles, %d warp-instructions; golden %d, %d",
							c.name, dev.Name, launch, plan.Kind, plan.TriggerIndex, plan.Bit,
							full.Profile.Cycles, full.Profile.WarpInstrs, golden.Cycles, golden.WarpInstrs)
					}
				}
				rec, err := r.RunTrialWithFault(clonePlan(plan), launch)
				if err != nil {
					t.Fatal(err)
				}
				if full := runWithFaultFull(t, r, clonePlan(plan), launch); !reflect.DeepEqual(rec, full) {
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
			rec, err := r.RunTrialWithFault(clonePlan(plan), 0)
			if err != nil {
				t.Fatal(err)
			}
			if full := runWithFaultFull(t, r, clonePlan(plan), 0); !reflect.DeepEqual(rec, full) {
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
