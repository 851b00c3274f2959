package kernels

import (
	"reflect"
	"sync"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/sim"
	"gpurel/internal/stats"
)

// runWithFaultFull is the pre-checkpointing reference engine: rebuild
// the workload from scratch and re-simulate every launch, with the
// fault plan applied to faultLaunch. The checkpointed RunTrialWithFault
// must produce the identical TrialRecord for every plan.
func runWithFaultFull(t *testing.T, r *Runner, plan *sim.FaultPlan, faultLaunch int) TrialRecord {
	t.Helper()
	inst, err := r.Build(r.Dev, r.Opt)
	if err != nil {
		t.Fatalf("full re-sim build: %v", err)
	}
	rec := TrialRecord{Outcome: Masked}
	for i, l := range inst.Launches {
		cfg := sim.Config{
			Device: r.Dev, Program: l.Prog,
			GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads,
			MaxCycles: r.goldenCycles[i]*10 + 20_000,
		}
		if i == faultLaunch {
			cfg.Fault = plan
		}
		res, err := sim.Run(cfg, inst.Global)
		if err != nil {
			t.Fatalf("full re-sim launch %d: %v", i, err)
		}
		if i == faultLaunch {
			rec.Fire = res.Fire
		}
		if res.Outcome == sim.OutcomeDUE {
			rec.Outcome, rec.DUEMode = DUE, res.DUEMode
			return rec
		}
	}
	if !inst.Check(inst.Global) {
		rec.Outcome = SDC
		r.captureDiff(inst.Global, &rec)
	}
	return rec
}

// askLogs asks for every launch's block log up to the recording
// threshold, so every later trial of r takes the log paths wherever
// they apply, whatever order trials reach the launches in.
func askLogs(t testing.TB, r *Runner) {
	t.Helper()
	for i := range r.Instance().Launches {
		for k := 0; k < logAfter; k++ {
			if _, err := r.logFor(i); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCheckpointedRunMatchesFullResimulation is the golden-equivalence
// gate of the checkpointed engine: over a spread of fault kinds, launch
// indices, trigger points, and bits, snapshot-restore, early masked
// cutoff, and the block log path must produce exactly the TrialRecord
// (outcome, DUE mode, diff, corrupt-word count) of rebuilding and
// re-simulating the whole program. Covers single-launch kernels
// (FMXM and FLAVA block-independent, QUICKSORT not) and multi-launch
// kernels (FLUD and CCL block-independent in every launch, BFS in only
// some, REDSUM in none) so the skip-prefix, cutoff-suffix, log-replay
// and fallback paths, and the cycle engine on launches that are not
// single-writer, are all exercised.
func TestCheckpointedRunMatchesFullResimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is heavy")
	}
	dev := device.K40c()
	cases := []struct {
		name  string
		build Builder
	}{
		{"FMXM", MxMBuilder(isa.F32)},         // single launch
		{"FLAVA", LavaBuilder(isa.F32)},       // single launch
		{"QUICKSORT", QuicksortBuilder()},     // single launch, cross-block
		{"FHOTSPOT", HotspotBuilder(isa.F32)}, // multi-launch, iterative stencil
		{"MERGESORT", MergesortBuilder()},     // multi-launch, pass hierarchy
		{"FLUD", LUDBuilder()},                // multi-launch
		{"CCL", CCLBuilder()},                 // multi-launch
		{"BFS", BFSBuilder()},                 // multi-launch, some cross-block
		{"REDSUM", redSumBuilder()},           // multi-launch, two writers
	}
	single := map[string]bool{"FMXM": true, "FLAVA": true, "QUICKSORT": true}
	const perKernel = 40
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRunner(c.name, c.build, dev, asm.O2)
			if err != nil {
				t.Fatal(err)
			}
			if !single[c.name] && len(r.Instance().Launches) < 2 {
				t.Fatalf("%s is not multi-launch", c.name)
			}
			askLogs(t, r)
			rng := stats.NewRNG(0xc4ec, 0x9001)
			launches := r.GoldenProfiles()
			gprFilter := func(op isa.Op) bool { return op.WritesGPR() }
			for i := 0; i < perKernel; i++ {
				launch := rng.IntN(len(launches))
				ops := launches[launch].LaneOps
				kind := sim.FaultKind(rng.IntN(8))
				plan := &sim.FaultPlan{
					Kind:         kind,
					TriggerIndex: uint64(rng.Int64N(int64(ops + 1))),
					Bit:          rng.IntN(64),
					Block:        rng.IntN(4),
					Thread:       rng.IntN(64),
					Reg:          rng.IntN(8),
					BitIdx:       rng.Uint64() % 4096,
				}
				if kind == sim.FaultValueBit && rng.Bool(0.5) {
					plan.Filter = gprFilter
				}
				rec, err := r.RunTrialWithFault(plan, launch)
				if err != nil {
					t.Fatalf("checkpointed run: %v", err)
				}
				if full := runWithFaultFull(t, r, plan, launch); !reflect.DeepEqual(rec, full) {
					t.Fatalf("case %d: kind %v launch %d trigger %d bit %d: checkpointed %+v, full re-sim %+v",
						i, plan.Kind, launch, plan.TriggerIndex, plan.Bit, rec, full)
				}
			}
			if st := r.LogStats(); c.name == "REDSUM" && st.Ineligible == 0 {
				t.Errorf("REDSUM log stats %+v: want launches run on the cycle engine as ineligible", st)
			}
		})
	}
}

// TestRunnerReusableAfterFaults locks in that faulted replays never
// leak corruption into the runner's cached state: a campaign of faults
// followed by a clean replay still classifies the clean replay as
// Masked, and the cached instance still passes its own comparator.
func TestRunnerReusableAfterFaults(t *testing.T) {
	dev := device.K40c()
	r, err := NewRunner("NW", NWBuilder(), dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		plan := &sim.FaultPlan{
			Kind:         sim.FaultValueBit,
			TriggerIndex: uint64(i * 37),
			Bit:          i % 32,
		}
		if _, err := r.RunTrialWithFault(plan, i%len(r.Instance().Launches)); err != nil {
			t.Fatal(err)
		}
	}
	// A never-firing plan replays the golden execution.
	rec, err := r.RunTrialWithFault(&sim.FaultPlan{Kind: sim.FaultValueBit, TriggerIndex: 1 << 60}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != Masked {
		t.Fatalf("clean replay after faults gave %v, want Masked", rec.Outcome)
	}
	if !r.Instance().Check(r.Instance().Global) {
		t.Fatal("faulted replays corrupted the cached golden memory")
	}
}

// TestSubLaunchReplayAcrossFaultKinds is the golden-equivalence gate of
// the sub-launch images specifically: on a single-launch kernel the
// launch boundary alone never helps, so every saving — mid-launch
// restores before the trigger and rejoin cutoffs after the fault washes
// out — comes from the recorded sub-launch images. Every fault kind
// gets triggers spread across the whole launch, and the checkpointed
// verdict must match full re-simulation for each. The test also pins
// how often the images engaged (restores used, rejoins cut off), and
// how often the block log ran the fault launch: equivalence proven
// only on replays that bypassed the images would prove nothing, and a
// change in checkpoint placement, start picking, or log eligibility
// moves the counts. Rejoins are few because an operation fault's
// replay runs its faulted block alone in log mode from the start
// image, and never rejoins; storage faults and log fallbacks still
// rejoin.
func TestSubLaunchReplayAcrossFaultKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is heavy")
	}
	dev := device.K40c()
	r, err := NewRunner("FMXM", MxMBuilder(isa.F32), dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Instance().Launches) != 1 {
		t.Fatalf("FMXM should be single-launch, has %d launches", len(r.Instance().Launches))
	}
	if n := len(r.ckpts[0]) - 1; n < 2 {
		t.Fatalf("expected sub-launch images on FMXM, got %d", n)
	}
	ops := r.GoldenProfiles()[0].LaneOps
	rng := stats.NewRNG(0x5b1a, 0x7002)
	gprFilter := func(op isa.Op) bool { return op.WritesGPR() }
	for kind := sim.FaultKind(0); kind < 8; kind++ {
		for i := 0; i < 5; i++ {
			// Five triggers per kind, spread from the launch's first
			// fifth to its end so plans land on both sides of the
			// recorded images.
			lo := ops * uint64(i) / 5
			plan := &sim.FaultPlan{
				Kind:         kind,
				TriggerIndex: lo + rng.Uint64()%(ops/5+1),
				Bit:          rng.IntN(64),
				Block:        rng.IntN(4),
				Thread:       rng.IntN(64),
				Reg:          rng.IntN(8),
				BitIdx:       rng.Uint64() % 4096,
			}
			if kind == sim.FaultValueBit && rng.Bool(0.5) {
				plan.Filter = gprFilter
			}
			rec, err := r.RunTrialWithFault(plan, 0)
			if err != nil {
				t.Fatalf("checkpointed run: %v", err)
			}
			fast, full := rec.Outcome, runWithFaultFull(t, r, plan, 0).Outcome
			if fast != full {
				t.Fatalf("kind %v trigger %d bit %d: checkpointed %v, full re-sim %v",
					plan.Kind, plan.TriggerIndex, plan.Bit, fast, full)
			}
		}
	}
	restores, rejoins := r.ReplayStats()
	if restores != 39 || rejoins != 5 {
		t.Errorf("sub-launch replay over 40 faults: %d restores, %d rejoins; want 39 and 5", restores, rejoins)
	}
	if got, want := r.LogStats(), (LogStats{Logged: 16, Prefixed: 17, PCMismatch: 1}); got != want {
		t.Errorf("log-mode stats over 40 faults: %+v, want %+v", got, want)
	}
}

// TestReplayDeterminismAcrossWorkers locks in that Runners shared by
// concurrent campaign workers produce exactly the records a sequential
// campaign does: the same plan set run one-at-a-time and under 8
// goroutines must give identical per-plan TrialRecords (outcome, DUE
// mode, diff, corrupt-word count). This is the property campaigns rely
// on when they fan RunTrialWithFault out over a worker pool — pooled
// memories, recycled engine state, image restores, and rejoin compares
// must not couple replays to each other. Plans of four shapes are
// interleaved so recycled engines cross programs, launch geometries,
// and devices between consecutive replays: FMXM (sub-launch image
// restores), FGAUSSIAN (46 launches, the boundary path), FHOTSPOT
// (shared memory), and FMXM on the V100 (80 SMs against the K40c's 15).
// A fifth shape, FLUD (46 block-independent launches: the dirty-set
// loop with log replays and skipped launches), draws its plans from its
// own stream, so the first four shapes keep their plans and their
// pinned outcome tally. A subset is also checked against full
// re-simulation.
func TestReplayDeterminismAcrossWorkers(t *testing.T) {
	shapes := []struct {
		name  string
		build Builder
		dev   *device.Device
	}{
		{"FMXM", MxMBuilder(isa.F32), device.K40c()},
		{"FGAUSSIAN", GaussianBuilder(), device.K40c()},
		{"FHOTSPOT", HotspotBuilder(isa.F32), device.K40c()},
		{"FMXM", MxMBuilder(isa.F32), device.V100()},
	}
	runners := make([]*Runner, len(shapes))
	for i, sh := range shapes {
		r, err := NewRunner(sh.name, sh.build, sh.dev, asm.O2)
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = r
	}
	type job struct {
		r      *Runner
		plan   *sim.FaultPlan
		launch int
	}
	lud, err := NewRunner("FLUD", LUDBuilder(), device.K40c(), asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	askLogs(t, lud)
	draw := func(rng *stats.RNG, r *Runner) job {
		profiles := r.GoldenProfiles()
		launch := rng.IntN(len(profiles))
		return job{r: r, launch: launch, plan: &sim.FaultPlan{
			Kind:         sim.FaultKind(rng.IntN(8)),
			TriggerIndex: rng.Uint64() % (profiles[launch].LaneOps + 1),
			Bit:          rng.IntN(64),
			Block:        rng.IntN(4),
			Thread:       rng.IntN(64),
			Reg:          rng.IntN(8),
			BitIdx:       rng.Uint64() % 4096,
		}}
	}
	rng := stats.NewRNG(0xd00d, 0x7003)
	ludRNG := stats.NewRNG(0xd00d, 0x7004)
	const perShape = 24
	var jobs []job
	for i := 0; i < perShape; i++ {
		for _, r := range runners {
			jobs = append(jobs, draw(rng, r))
		}
		jobs = append(jobs, draw(ludRNG, lud))
	}
	seq := make([]TrialRecord, len(jobs))
	for i, j := range jobs {
		rec, err := j.r.RunTrialWithFault(j.plan, j.launch)
		if err != nil {
			t.Fatalf("sequential plan %d: %v", i, err)
		}
		seq[i] = rec
	}
	par := make([]TrialRecord, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				par[i], errs[i] = jobs[i].r.RunTrialWithFault(jobs[i].plan, jobs[i].launch)
			}
		}()
	}
	for i := range jobs {
		work <- i
	}
	close(work)
	wg.Wait()
	outcomes := map[Outcome]int{}
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("parallel plan %d: %v", i, errs[i])
		}
		if j.r != lud {
			outcomes[seq[i].Outcome]++
		}
		if !reflect.DeepEqual(par[i], seq[i]) {
			t.Errorf("plan %d (%s on %s, kind %v launch %d trigger %d): sequential %+v, 8-worker %+v",
				i, j.r.Name, j.r.Dev.Name, j.plan.Kind, j.launch, j.plan.TriggerIndex, seq[i], par[i])
		}
	}
	for i := 0; i < len(jobs); i += 5 {
		j := jobs[i]
		if full := runWithFaultFull(t, j.r, j.plan, j.launch); !reflect.DeepEqual(full, seq[i]) {
			t.Errorf("plan %d (%s on %s, kind %v launch %d trigger %d): checkpointed %+v, full re-sim %+v",
				i, j.r.Name, j.r.Dev.Name, j.plan.Kind, j.launch, j.plan.TriggerIndex, seq[i], full)
		}
	}
	if want := (map[Outcome]int{Masked: 49, SDC: 36, DUE: 11}); !reflect.DeepEqual(outcomes, want) {
		t.Errorf("outcomes over the %d plans of the first four shapes: %v, want %v", perShape*len(runners), outcomes, want)
	}
	if st := lud.LogStats(); st.Logged == 0 || st.Skipped == 0 {
		t.Errorf("FLUD log stats %+v: want log-mode launches and skipped launches", st)
	}
}

// TestRunnerCheckpointLayout pins where the golden run puts its
// checkpoints and what they cost: the launch count, the sub-launch
// images across all launches (each launch also has its boundary), and
// MemoryFootprint, which kernels.Cache evicts by. A boundary is charged
// its memory snapshot only; a sub-launch image adds the block-state
// allowance; every launch adds its block log (sim.BlockLogBytes), whose
// reader masks only launches after the first carry, and whose write
// list and write seqs are charged per written word, bounded by the
// launch's golden store lanes (Runner.storeWords). The values are the
// same on both devices.
func TestRunnerCheckpointLayout(t *testing.T) {
	cases := []struct {
		name      string
		build     Builder
		launches  int
		images    int
		footprint int
	}{
		{"FMXM", MxMBuilder(isa.F32), 1, 22, 6923336},
		{"FGAUSSIAN", GaussianBuilder(), 46, 0, 5307700},
		{"FHOTSPOT", HotspotBuilder(isa.F32), 4, 8, 5578016},
	}
	for _, dev := range []*device.Device{device.K40c(), device.V100()} {
		for _, c := range cases {
			r, err := NewRunner(c.name, c.build, dev, asm.O2)
			if err != nil {
				t.Fatal(err)
			}
			images := 0
			for _, seq := range r.ckpts {
				images += len(seq) - 1
			}
			if len(r.ckpts) != c.launches || images != c.images || r.MemoryFootprint() != c.footprint {
				t.Errorf("%s on %s: %d launches, %d sub-launch images, footprint %d; want %d, %d, %d",
					c.name, dev.Name, len(r.ckpts), images, r.MemoryFootprint(), c.launches, c.images, c.footprint)
			}
		}
	}
}

// TestEarlyCutoffMatchesComparator spot-checks the cutoff logic
// directly: for faults injected into the first launch of a multi-launch
// kernel, a Masked verdict must mean the full pipeline agrees (the
// comparator would also have passed).
func TestEarlyCutoffMatchesComparator(t *testing.T) {
	dev := device.K40c()
	r, err := NewRunner("GAUSSIAN", GaussianBuilder(), dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(0xcafe, 7)
	for i := 0; i < 25; i++ {
		plan := &sim.FaultPlan{
			Kind:         sim.FaultValueBit,
			TriggerIndex: uint64(rng.Int64N(int64(r.GoldenProfiles()[0].LaneOps))),
			Bit:          rng.IntN(64),
		}
		rec, err := r.RunTrialWithFault(plan, 0)
		if err != nil {
			t.Fatal(err)
		}
		fast, full := rec.Outcome, runWithFaultFull(t, r, plan, 0).Outcome
		if fast != full {
			t.Fatalf("trigger %d bit %d: cutoff %v vs comparator %v",
				plan.TriggerIndex, plan.Bit, fast, full)
		}
	}
}
