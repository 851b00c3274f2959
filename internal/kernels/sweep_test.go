package kernels_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
	"gpurel/internal/stats"
	"gpurel/internal/suite"
)

// replayPath names a way a launch step of a trial ran.
type replayPath string

const (
	pathFaultLogged replayPath = "fault launch in log mode"
	pathLoggedDUE   replayPath = "DUE decided in log mode"
	pathSkipped     replayPath = "later launch skipped"
	pathSerial      replayPath = "several reader blocks one after another"
	pathResolved    replayPath = "lone block's foreign access resolved from write seqs"
)

// maxFenced bounds the sweep's fence fallbacks (9 are taken), so that
// a change that makes lone replayed blocks resolve fewer accesses of
// other blocks' written words from their write seqs shows.
const maxFenced = 20

// TestReplayMatchesFullAtSuiteScale is the exactness sweep of the
// checkpointed replay (DESIGN §19): on every suite code of both studied
// devices at O1 and O2, plus the REDSUM and GATHER test kernels, random
// plans of all eight fault kinds must give exactly the TrialRecord of
// full re-simulation, with every block log recorded. It also asserts that
// the sweep took every replay path: a fault launch in log mode, a DUE
// decided in log mode, a skipped later launch, reader blocks run one
// after another, a lone block's access of another block's word
// resolved from its write seqs, and every log fallback reason, several
// readers of a launch with foreign reads (BFS) among them; and that the
// fence falls back at most maxFenced times.
func TestReplayMatchesFullAtSuiteScale(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-scale equivalence sweep is heavy")
	}
	type job struct {
		name    string
		build   kernels.Builder
		dev     *device.Device
		opt     asm.OptLevel
		perKind int // plans of each fault kind
	}
	var jobs []job
	for _, dev := range []*device.Device{device.K40c(), device.V100()} {
		for _, opt := range []asm.OptLevel{asm.O1, asm.O2} {
			for _, e := range suite.ForDevice(dev) {
				jobs = append(jobs, job{e.Name, e.Build, dev, opt, 8})
			}
		}
	}
	// No suite launch has two writers of a word, and no suite trial
	// sampled here raises a DUE while several blocks replay: REDSUM and
	// GATHER take those two fallbacks.
	jobs = append(jobs,
		job{"REDSUM", kernels.RedSumBuilder(), device.K40c(), asm.O1, 8},
		job{"GATHER", kernels.GatherBuilder(), device.K40c(), asm.O1, 64})

	var mu sync.Mutex
	taken := map[replayPath]int{}
	fallbacks := map[sim.LogFallback]int{}
	t.Run("codes", func(t *testing.T) {
		for k, j := range jobs {
			t.Run(fmt.Sprintf("%s/%s/%v", j.dev.Name, j.name, j.opt), func(t *testing.T) {
				t.Parallel()
				r, err := kernels.NewRunner(j.name, j.build, j.dev, j.opt)
				if err != nil {
					t.Fatal(err)
				}
				kernels.AskLogs(t, r)
				seen := func(fault int) func(int, sim.Result) {
					return func(i int, res sim.Result) {
						mu.Lock()
						defer mu.Unlock()
						if res.Resolved > 0 {
							taken[pathResolved]++
						}
						switch {
						case res.LogFallback != sim.LogOK:
							fallbacks[res.LogFallback]++
						case res.Skipped:
							taken[pathSkipped]++
						case !res.Logged:
						case res.Outcome == sim.OutcomeDUE:
							taken[pathLoggedDUE]++
						case i == fault:
							taken[pathFaultLogged]++
						case res.Replayed > 1:
							taken[pathSerial]++
						}
					}
				}
				rng := stats.NewRNG(0x5eeb, uint64(k))
				lanes := r.GoldenProfiles()
				for kind := sim.FaultKind(0); kind < 8; kind++ {
					for n := 0; n < j.perKind; n++ {
						launch := rng.IntN(len(lanes))
						plan := &sim.FaultPlan{
							Kind:         kind,
							TriggerIndex: uint64(rng.Int64N(int64(lanes[launch].LaneOps + 1))),
							Bit:          rng.IntN(64),
							Block:        rng.IntN(4),
							Thread:       rng.IntN(64),
							Reg:          rng.IntN(8),
							BitIdx:       rng.Uint64() % 4096,
						}
						if n%2 == 1 {
							plan.Filter = isa.Op.WritesGPR
						}
						rec, err := r.RunTrialSeen(plan, launch, seen(launch))
						if err != nil {
							t.Fatal(err)
						}
						if want := r.RunWithFaultFull(t, plan, launch); !reflect.DeepEqual(rec, want) {
							t.Fatalf("%v launch %d trigger %d bit %d: checkpointed %+v, full re-sim %+v",
								kind, launch, plan.TriggerIndex, plan.Bit, rec, want)
						}
					}
				}
			})
		}
	})
	t.Logf("paths %v, fallbacks %v", taken, fallbacks)
	for _, p := range []replayPath{pathFaultLogged, pathLoggedDUE, pathSkipped, pathSerial, pathResolved} {
		if taken[p] == 0 {
			t.Errorf("no trial took the path %q", p)
		}
	}
	for fb, name := range map[sim.LogFallback]string{
		sim.LogPCMismatch: "pc mismatch", sim.LogFenced: "fence", sim.LogMultiDUE: "multi-block DUE",
		sim.LogForeignRead: "foreign read", sim.LogMultiReader: "several readers with foreign reads",
		sim.LogIneligible: "ineligible",
	} {
		if fallbacks[fb] == 0 {
			t.Errorf("no launch fell back for a %s", name)
		}
	}
	if n := fallbacks[sim.LogFenced]; n > maxFenced {
		t.Errorf("%d fence fallbacks, want at most %d", n, maxFenced)
	}
}
