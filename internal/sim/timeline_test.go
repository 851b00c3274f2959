package sim

import (
	"math"
	"reflect"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// runSampled runs a program, which samples its timeline, and returns
// the profile.
func runSampled(t *testing.T, prog *isa.Program, grid, block int) Profile {
	t.Helper()
	g := mem.NewGlobal(1 << 20)
	res, err := Run(Config{
		Device: device.K40c(), Program: prog,
		GridX: grid, GridY: 1, BlockThreads: block,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeOK {
		t.Fatalf("run failed: %s", res.DUEReason())
	}
	return res.Profile
}

// buildSpin builds a trip-count loop long enough to force bucket folds.
func buildSpin(t *testing.T, trips int32) *isa.Program {
	t.Helper()
	b := asm.New("spin", asm.O1)
	i := b.R()
	p := b.P()
	b.MovImm(i, 0)
	b.Label("loop")
	b.IAdd(i, isa.R(i), isa.ImmInt(1))
	b.ISetp(p, isa.CmpLT, isa.R(i), isa.ImmInt(trips))
	b.BraIf(p, false, "loop")
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestTimelineBucketTotalsMatchProfile pins the invariant that makes the
// timeline trustworthy: summing any counter over the buckets reproduces
// the profile-level aggregate exactly, for both the cycle-stepped and
// the fast-forwarded (span-credited) paths.
func TestTimelineBucketTotalsMatchProfile(t *testing.T) {
	p := runSampled(t, buildSpin(t, 200), 3, 64)
	tl := p.Timeline
	if len(tl.Buckets) != TimelineBuckets {
		t.Fatalf("bucket count %d, want %d", len(tl.Buckets), TimelineBuckets)
	}
	if tl.BucketWidth <= 0 || tl.BucketWidth&(tl.BucketWidth-1) != 0 {
		t.Fatalf("bucket width %d is not a positive power of two", tl.BucketWidth)
	}
	var cycles int64
	var smc, awc, issued, ctrl, load, div uint64
	for _, b := range tl.Buckets {
		cycles += b.Cycles
		smc += b.SMCycles
		awc += b.ActiveWarpCycles
		issued += b.Issued
		ctrl += b.CtrlOps
		load += b.LoadResidency
		div += b.DivResidency
	}
	if cycles != p.Cycles {
		t.Errorf("bucket cycles %d, profile %d", cycles, p.Cycles)
	}
	if smc != p.SMCycles {
		t.Errorf("bucket SM cycles %d, profile %d", smc, p.SMCycles)
	}
	if awc != p.ActiveWarpCycles {
		t.Errorf("bucket warp cycles %d, profile %d", awc, p.ActiveWarpCycles)
	}
	if issued != p.WarpInstrs {
		t.Errorf("bucket issued %d, profile %d", issued, p.WarpInstrs)
	}
	if ctrl != p.CtrlOps {
		t.Errorf("bucket ctrl ops %d, profile %d", ctrl, p.CtrlOps)
	}
	if load != p.LoadResidency {
		t.Errorf("bucket load residency %d, profile %d", load, p.LoadResidency)
	}
	if div != p.DivResidency {
		t.Errorf("bucket div residency %d, profile %d", div, p.DivResidency)
	}
	if p.WarpInstrs == 0 || p.CtrlOps == 0 {
		t.Fatal("spin kernel should issue instructions and take branches")
	}
}

// TestTimelineFoldsKeepTotals forces the launch far past the initial
// 64-cycle capacity and checks that pairwise folding preserved every
// counter while the width grew to cover the run.
func TestTimelineFoldsKeepTotals(t *testing.T) {
	p := runSampled(t, buildSpin(t, 2000), 1, 32)
	tl := p.Timeline
	if tl.BucketWidth < 2 {
		t.Fatalf("run of %d cycles must have folded, width %d", p.Cycles, tl.BucketWidth)
	}
	if tl.BucketWidth*int64(TimelineBuckets) < p.Cycles {
		t.Fatalf("width %d x %d buckets cannot cover %d cycles",
			tl.BucketWidth, TimelineBuckets, p.Cycles)
	}
	var cycles int64
	var issued uint64
	for _, b := range tl.Buckets {
		cycles += b.Cycles
		issued += b.Issued
	}
	if cycles != p.Cycles || issued != p.WarpInstrs {
		t.Fatalf("fold lost counts: %d/%d cycles, %d/%d issued",
			cycles, p.Cycles, issued, p.WarpInstrs)
	}
}

// TestTimelineAbsentWithoutSampling pins the campaign-path contract:
// the golden run samples the timeline and the residency counters, and a
// Trial's launch runs lean — no buckets, no per-op counts, no residency
// counters — while its clocks match the golden run's.
func TestTimelineAbsentWithoutSampling(t *testing.T) {
	cfg := Config{Device: device.K40c(), Program: buildSpin(t, 50), GridX: 1, GridY: 1, BlockThreads: 32}
	g := mem.NewGlobal(1 << 20)
	if _, err := g.Alloc(4); err != nil {
		t.Fatal(err)
	}
	golden, seq, err := RunGolden(cfg, g, 0)
	if err != nil || golden.Outcome != OutcomeOK {
		t.Fatalf("golden run: %v %v", err, golden)
	}
	if golden.Profile.Timeline.Buckets == nil || golden.Profile.CtrlOps == 0 {
		t.Fatal("the golden run must sample its timeline and residency counters")
	}
	res, err := NewTrial(g.AllocatedBytes()).Launch(cfg, seq, g.Snapshot(), func() (*BlockLog, error) { return nil, nil })
	if err != nil || res.Outcome != OutcomeOK {
		t.Fatalf("trial launch: %v %v", err, res.DUEReason())
	}
	p := res.Profile
	if p.Timeline.Buckets != nil || p.PerOpLane != nil || p.CtrlOps != 0 {
		t.Errorf("trial launch profiled: %d buckets, per-op counts %v, %d ctrl ops", len(p.Timeline.Buckets), p.PerOpLane, p.CtrlOps)
	}
	if p.Cycles != golden.Profile.Cycles || p.WarpInstrs != golden.Profile.WarpInstrs {
		t.Errorf("trial launch ran %d cycles, %d warp-instructions; golden %d, %d",
			p.Cycles, p.WarpInstrs, golden.Profile.Cycles, golden.Profile.WarpInstrs)
	}
}

// TestTimelineDeterministic pins that two identical sampled runs yield
// byte-identical timelines.
func TestTimelineDeterministic(t *testing.T) {
	a := runSampled(t, buildSpin(t, 300), 2, 64)
	b := runSampled(t, buildSpin(t, 300), 2, 64)
	if !reflect.DeepEqual(a.Timeline, b.Timeline) {
		t.Fatal("timelines differ between identical runs")
	}
}

// TestZeroProfileResidency pins the zero-cycle guard: the zero-value
// Profile (what an empty-grid launch would produce) and an aggregate of
// no launches yield all-zero metrics, never NaN or Inf.
func TestZeroProfileResidency(t *testing.T) {
	check := func(name string, p Profile) {
		t.Helper()
		dev := device.K40c()
		r := p.Residency(dev)
		for _, v := range []float64{
			r.SchedUtil, r.FetchRate, r.DivDepth, r.LoadDepth,
			r.WarpsPerSMCycle, r.SMCyclesPerCycle,
			p.IPC(), p.AchievedOccupancy(dev),
		} {
			if v != 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: zero profile produced %v, want 0", name, v)
			}
		}
	}
	check("zero value", Profile{})
	check("empty aggregate", Aggregate(nil))
}
