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

// TestOutcomeStringRoundTrip pins the stringer: the three real outcomes
// have distinct stable names that map back to the value, and anything
// out of range renders as a guarded placeholder instead of garbage (or
// a panic on a corrupted byte read back from a checkpoint).
func TestOutcomeStringRoundTrip(t *testing.T) {
	want := map[Outcome]string{Masked: "Masked", SDC: "SDC", DUE: "DUE"}
	seen := map[string]Outcome{}
	for o, name := range want {
		if got := o.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", uint8(o), got, name)
		}
		if prev, dup := seen[o.String()]; dup {
			t.Errorf("outcomes %d and %d share the name %q", uint8(prev), uint8(o), o.String())
		}
		seen[o.String()] = o
	}
	// Round trip: name -> value -> name.
	for o, name := range want {
		if seen[name] != o {
			t.Errorf("round trip lost %q", name)
		}
	}
	for _, raw := range []uint8{3, 7, 200, 255} {
		got := Outcome(raw).String()
		if _, clash := seen[got]; clash {
			t.Errorf("Outcome(%d).String() = %q collides with a real outcome", raw, got)
		}
		if got == "" {
			t.Errorf("Outcome(%d).String() is empty", raw)
		}
	}
}

// TestTrialRecordDiffInvariants drives real value-bit faults through a
// workload with a declared output region and checks the structured
// record's contract on every outcome:
//
//   - Masked/DUE records carry no diff;
//   - every SDC record counts at least one corrupt word, records at most
//     DiffBudgetWords, and emits addresses in ascending order;
//   - recorded words that differ land inside the declared output region
//     (the capture is element-coalesced, so equal-valued companion words
//     of a corrupt element may also appear);
//   - DiffTruncated is set exactly when corrupt words were dropped.
func TestTrialRecordDiffInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("injects a few hundred faults")
	}
	dev := device.K40c()
	r, err := NewRunner("FMXM", MxMBuilder(isa.F32), dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	geo := r.Instance().Output
	if geo == nil {
		t.Fatal("FMXM must declare an output region")
	}
	laneOps := r.GoldenProfiles()[0].LaneOps
	sdcs := 0
	for i := 0; i < 300; i++ {
		plan := &sim.FaultPlan{
			Kind:         sim.FaultValueBit,
			TriggerIndex: uint64(i) * 37 % laneOps,
			Bit:          i % 32,
		}
		rec, err := r.RunTrialWithFault(plan, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Outcome != SDC {
			if len(rec.Diff) != 0 || rec.CorruptWords != 0 || rec.DiffTruncated {
				t.Fatalf("trial %d: %s record carries a diff: %+v", i, rec.Outcome, rec)
			}
			continue
		}
		sdcs++
		if rec.CorruptWords == 0 {
			t.Fatalf("trial %d: SDC with zero corrupt words", i)
		}
		if len(rec.Diff) > DiffBudgetWords {
			t.Fatalf("trial %d: recorded %d words, budget is %d", i, len(rec.Diff), DiffBudgetWords)
		}
		recordedCorrupt := 0
		for j, w := range rec.Diff {
			if j > 0 && rec.Diff[j-1].Addr >= w.Addr {
				t.Fatalf("trial %d: diff addresses not ascending: %#x then %#x",
					i, rec.Diff[j-1].Addr, w.Addr)
			}
			if w.Golden == w.Observed {
				continue // still-golden companion word of a corrupt element
			}
			recordedCorrupt++
			if _, _, ok := geo.Locate(w.Addr); !ok {
				t.Fatalf("trial %d: corrupt word at %#x outside the output region", i, w.Addr)
			}
		}
		if rec.DiffTruncated && rec.CorruptWords <= recordedCorrupt {
			t.Fatalf("trial %d: truncated but all %d corrupt words recorded", i, rec.CorruptWords)
		}
		if !rec.DiffTruncated && rec.CorruptWords != recordedCorrupt {
			t.Fatalf("trial %d: not truncated but recorded %d of %d corrupt words",
				i, recordedCorrupt, rec.CorruptWords)
		}
	}
	if sdcs == 0 {
		t.Fatal("no SDC produced; the invariant run needs at least one")
	}
	t.Logf("checked %d SDC records", sdcs)
}

// TestFaultPlanReusable pins that a fault plan is an input only: one
// *sim.FaultPlan run three times through RunTrialWithFault, two of the
// runs concurrently, gives records equal to each other and to the full
// re-simulation's, fire site included. The cases are an FMXM value
// fault whose log-mode replay falls back to the cycle engine, so both
// engines run the plan; a QUICKSORT value fault that ends SDC or DUE;
// and an RF-bit fault that lands and is not masked.
func TestFaultPlanReusable(t *testing.T) {
	dev := device.K40c()
	fmxm, err := NewRunner("FMXM", MxMBuilder(isa.F32), dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := NewRunner("QUICKSORT", QuicksortBuilder(), dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	askLogs(t, fmxm)
	askLogs(t, qs)

	// find returns the first plan mk builds, over k = 0, 1, ..., whose
	// trial passes want, given the fault launch's result. The plan it
	// probes and the plan it returns are two builds of mk(k).
	find := func(r *Runner, mk func(k uint64) *sim.FaultPlan, want func(fault sim.Result, rec TrialRecord) bool) *sim.FaultPlan {
		t.Helper()
		for k := uint64(0); k < 1000; k++ {
			var fault sim.Result
			rec, err := r.runTrial(mk(k), 0, func(launch int, res sim.Result) {
				if launch == 0 {
					fault = res
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if want(fault, rec) {
				return mk(k)
			}
		}
		t.Fatalf("%s: no plan passes the case's filter", r.Name)
		return nil
	}
	value := func(r *Runner) func(k uint64) *sim.FaultPlan {
		ops := r.GoldenProfiles()[0].LaneOps
		return func(k uint64) *sim.FaultPlan {
			rng := stats.NewRNG(0xf1e, k)
			return &sim.FaultPlan{Kind: sim.FaultValueBit, TriggerIndex: rng.Uint64() % ops, Bit: rng.IntN(32)}
		}
	}
	l := fmxm.Instance().Launches[0]
	rf := func(k uint64) *sim.FaultPlan {
		rng := stats.NewRNG(0xf1f, k)
		return &sim.FaultPlan{
			Kind:         sim.FaultRFBit,
			TriggerIndex: rng.Uint64() % fmxm.GoldenProfiles()[0].LaneOps,
			Block:        rng.IntN(l.GridX * l.GridY),
			Thread:       rng.IntN(l.BlockThreads),
			Reg:          rng.IntN(l.Prog.NumRegs),
			Bit:          rng.IntN(32),
		}
	}
	cases := []struct {
		name string
		r    *Runner
		plan *sim.FaultPlan
	}{
		{"FMXM value fault, log fallback", fmxm, find(fmxm, value(fmxm), func(fault sim.Result, _ TrialRecord) bool {
			return fault.LogFallback == sim.LogFenced || fault.LogFallback == sim.LogPCMismatch
		})},
		{"QUICKSORT value fault, SDC or DUE", qs, find(qs, value(qs), func(_ sim.Result, rec TrialRecord) bool {
			return rec.Outcome != Masked
		})},
		{"FMXM RF-bit fault", fmxm, find(fmxm, rf, func(_ sim.Result, rec TrialRecord) bool {
			return rec.Fire.Landed && rec.Outcome != Masked
		})},
	}
	for _, c := range cases {
		recs := make([]TrialRecord, 3)
		errs := make([]error, 3)
		recs[0], errs[0] = c.r.RunTrialWithFault(c.plan, 0)
		var wg sync.WaitGroup
		for i := 1; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs[i], errs[i] = c.r.RunTrialWithFault(c.plan, 0)
			}()
		}
		wg.Wait()
		full := runWithFaultFull(t, c.r, c.plan, 0)
		t.Logf("%s: %+v gives %v, fire %+v", c.name, *c.plan, full.Outcome, full.Fire)
		if !full.Fire.Fired {
			t.Errorf("%s: the plan never fired", c.name)
		}
		for i, rec := range recs {
			if errs[i] != nil {
				t.Fatalf("%s run %d: %v", c.name, i+1, errs[i])
			}
			if !reflect.DeepEqual(rec, full) {
				t.Errorf("%s run %d: %+v, full re-sim %+v", c.name, i+1, rec, full)
			}
		}
	}
}
