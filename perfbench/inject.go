package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/kernels"
	"gpurel/internal/patterns"
	"gpurel/internal/sim"
	"gpurel/internal/suite"
)

// The single-launch kernels replay most trials from sub-launch golden
// images; the multi-launch ones record none, so boundary snapshot
// restores and per-launch compares carry their replays.
var (
	singleLaunchKernels = []string{"FMXM", "FLAVA", "QUICKSORT"}
	multiLaunchKernels  = []string{"FGAUSSIAN", "FLUD", "MERGESORT", "BFS", "CCL"}
)

const (
	// campaignFaults is the NVBitFI sample size of one inject campaign.
	campaignFaults = 200
	// campaignSeeds is the size of each kernel's fixed campaign-seed
	// pool; --seed only picks the order in which the pool is visited, so
	// every campaign's tallies can be checked against expected.json.
	campaignSeeds = 16
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median, since a single tens-of-milliseconds set-up is noisy.
	setupReps = 15
	// injectTailPct is the inject workloads' tail percentile: a 20 s run
	// completes 130-250 campaigns, at least 13 beyond the p90.
	injectTailPct = 90
)

func entries(dev *device.Device, names []string) ([]suite.Entry, error) {
	var out []suite.Entry
	for _, n := range names {
		e, err := suite.Find(suite.ForDevice(dev), n)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// setupRunners builds the runners a workload uses, reps times, and
// keeps the last set. Every golden run must pass its comparator. Traced
// runs time each Builder call apart from the NewRunner golden run.
func setupRunners(r *run, dev *device.Device, ents []suite.Entry, opt asm.OptLevel, reps int) ([]*kernels.Runner, error) {
	var times, buildMs, runMs []float64
	var laneOps uint64
	var runNs float64
	var runners []*kernels.Runner
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		t0 := time.Now()
		runners = runners[:0]
		for _, e := range ents {
			if r.tr != nil {
				sp := r.tr.begin("golden.build", 0, e.Name)
				if _, err := e.Build(dev, opt); err != nil {
					return nil, err
				}
				buildMs = append(buildMs, ms(r.tr.end(sp)))
			}
			sp := r.tr.begin("golden.new_runner", 0, e.Name)
			rn, err := kernels.NewRunner(e.Name, e.Build, dev, opt)
			if err != nil {
				return nil, err
			}
			if r.tr != nil {
				total := ms(r.tr.end(sp))
				run := total - buildMs[len(buildMs)-1]
				runMs = append(runMs, run)
				runNs += run * 1e6
				laneOps += rn.TotalLaneOps(nil)
			}
			runners = append(runners, rn)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	var footprint int
	for _, rn := range runners {
		inst := rn.Instance()
		r.check(inst.Check(inst.Global), "%s golden output fails its comparator", rn.Name)
		footprint += rn.MemoryFootprint()
	}
	r.set("setup_s", median(times))
	r.note("setup: %d runners built %d times, median %.4f s", len(runners), reps, median(times))
	if r.tr != nil {
		r.set("golden.runners", float64(len(runners)))
		r.set("golden.build_ms", median(buildMs))
		r.set("golden.run_ms", median(runMs))
		if laneOps > 0 {
			r.set("golden.ns_per_lane_op", runNs/float64(laneOps))
		}
		r.set("golden.footprint_mb", float64(footprint)/(1<<20))
	}
	return runners, nil
}

func injectConfig(seed uint64) faultinj.Config {
	return faultinj.Config{Tool: faultinj.NVBitFI, TotalFaults: campaignFaults, Workers: workers, Seed: seed}
}

func injectKey(name string, seed uint64) string { return fmt.Sprintf("%s/%d", name, seed) }

// runInject is the closed-loop batch workload: one campaign after
// another, round-robin over the kernels, each seed drawn from the pool.
func runInject(r *run, names []string) error {
	dev := device.K40c()
	ents, err := entries(dev, names)
	if err != nil {
		return err
	}
	runners, err := setupRunners(r, dev, ents, faultinj.NVBitFI.OptLevel(), setupReps)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(r.seed, 0x1e1ec7))
	if r.tr != nil {
		return injectTraced(r, runners, rng)
	}
	seeds := seedOrder(rng, len(runners))
	var lat []float64
	var tp throughput
	trials := 0
	start := time.Now()
	tp.mark(0)
	for i := 0; !r.windowDone(start) || i%len(runners) != 0; i++ {
		rn, seed := runners[i%len(runners)], seeds(i)
		t0 := time.Now()
		res, err := faultinj.RunWithRunner(injectConfig(seed), rn)
		d := time.Since(t0)
		key := injectKey(rn.Name, seed)
		if err != nil {
			r.check(false, "%s: %v", key, err)
			continue
		}
		lat = append(lat, d.Seconds())
		trials += res.Injected
		want, ok := r.expected.Inject[key]
		got := [3]int{res.Masked, res.SDC, res.DUE}
		r.check(ok && got == want, "%s: Masked/SDC/DUE %v, recorded %v", key, got, want)
		if (i+1)%len(runners) == 0 {
			tp.mark(trials)
		}
	}
	tp.set(r, "a round of one campaign per kernel")
	setLatency(r, lat, injectTailPct)
	var restores, rejoins uint64
	for _, rn := range runners {
		a, b := rn.ReplayStats()
		restores, rejoins = restores+a, rejoins+b
	}
	r.note("replays: %d trials, %d started from a sub-launch image, %d rejoined golden", trials, restores, rejoins)
	return nil
}

// seedOrder returns campaign i's pool seed: kernel i mod k visits its
// pool in a seed-permuted order, so every run covers the pool evenly
// and --seed sets only the order.
func seedOrder(rng *rand.Rand, k int) func(i int) uint64 {
	perms := make([][]int, k)
	for j := range perms {
		perms[j] = rng.Perm(campaignSeeds)
	}
	return func(i int) uint64 { return uint64(perms[i%k][(i/k)%campaignSeeds]) + 1 }
}

// trialResult is one traced trial's record and replay time.
type trialResult struct {
	rec kernels.TrialRecord
	dur time.Duration
}

// classPlan is one trial of a decomposed campaign: index i of a class
// sampler.
type classPlan struct {
	s *faultinj.ClassSampler
	i uint64
}

// campaignPlans splits campaignFaults across the runner's NVBitFI class
// samplers in proportion to each class's dynamic lane-op population,
// rounding as faultinj.RunWithRunner does (at least one trial per
// class), so a decomposed campaign has the batch campaign's class mix
// and trial count.
func campaignPlans(rn *kernels.Runner) []classPlan {
	var samplers []*faultinj.ClassSampler
	var total uint64
	for _, c := range faultinj.AdaptiveClasses(rn, faultinj.NVBitFI) {
		s, _ := faultinj.NewClassSampler(rn, faultinj.NVBitFI, c)
		samplers = append(samplers, s)
		total += s.Population()
	}
	var out []classPlan
	for _, s := range samplers {
		share := max(int(float64(campaignFaults)*float64(s.Population())/float64(total)+0.5), 1)
		for i := 0; i < share; i++ {
			out = append(out, classPlan{s, uint64(i)})
		}
	}
	return out
}

// decomposedCampaign runs one campaign through the layers' public
// functions instead of faultinj.RunWithRunner, so each call can carry a
// span: ClassSampler.Plan, Runner.RunTrialWithFault on a pool of
// workers, then patterns.Observe and Tally.Count. ClassSampler.Plan is
// the serve daemon's index-addressed sampler; RunWithRunner draws the
// same class mix from one sequential stream, so the two tally
// differently and each is checked against its own recorded values.
// With tr nil it runs the same work untraced.
func decomposedCampaign(tr *tracer, rn *kernels.Runner, plans []classPlan, seed uint64, group string) (faultinj.Tally, []trialResult, error) {
	camp := tr.begin("faultinj.campaign", 0, group)
	out := make([]trialResult, len(plans))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				p := plans[j]
				sp := tr.begin("faultinj.plan", camp.ID, group)
				plan, launch := p.s.Plan(seed, p.i)
				tr.end(sp)
				sp = tr.begin("replay.trial", camp.ID, group)
				rec, err := rn.RunTrialWithFault(plan, launch)
				out[j] = trialResult{rec: rec, dur: tr.end(sp)}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for j := range out {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	var tally faultinj.Tally
	if firstErr != nil {
		tr.end(camp)
		return tally, nil, firstErr
	}
	geo := rn.Instance().Output
	for _, t := range out {
		sp := tr.begin("patterns.observe", camp.ID, group)
		ob := patterns.Observe(t.rec, geo)
		tr.end(sp)
		sp = tr.begin("faultinj.tally", camp.ID, group)
		tally.Count(ob)
		tr.end(sp)
	}
	tr.end(camp)
	return tally, out, nil
}

// injectTraced pairs each untraced faultinj.RunWithRunner campaign,
// the path the --trace 0 run times, with a traced decomposed campaign
// of the same kernel, seed, and class mix. Both are checked against
// their recorded tallies, the traced one feeds the per-layer metrics,
// and the pair's timing difference is the tracing overhead.
func injectTraced(r *run, runners []*kernels.Runner, rng *rand.Rand) error {
	plans := make([][]classPlan, len(runners))
	for i, rn := range runners {
		plans[i] = campaignPlans(rn)
	}
	var (
		lat        [2][]float64
		trials     [2]int
		wall       [2]time.Duration
		batchN     int // trials of the pair's RunWithRunner campaign
		byOutcome  = map[string][]float64{}
		busy       time.Duration
		sdcWords   int
		total      faultinj.Tally
		restores0  uint64
		rejoins0   uint64
		replayRuns int
	)
	for _, rn := range runners {
		a, b := rn.ReplayStats()
		restores0, rejoins0 = restores0+a, rejoins0+b
	}
	seeds := seedOrder(rng, len(runners))
	probe := startRuntimeProbe()
	start := time.Now()
	for i := 0; !r.windowDone(start) || i%2 == 1; i++ {
		k, traced := (i/2)%len(runners), i%2
		rn, seed := runners[k], seeds(i/2)
		key := injectKey(rn.Name, seed)
		group := fmt.Sprintf("c%d/%s", i/2, key)
		if traced == 0 {
			t0 := time.Now()
			res, err := faultinj.RunWithRunner(injectConfig(seed), rn)
			d := time.Since(t0)
			batchN = -1
			if err != nil {
				r.check(false, "%s: %v", key, err)
				continue
			}
			batchN = res.Injected
			replayRuns += res.Injected
			lat[0] = append(lat[0], d.Seconds())
			trials[0] += res.Injected
			wall[0] += d
			want, ok := r.expected.Inject[key]
			got := [3]int{res.Masked, res.SDC, res.DUE}
			r.check(ok && got == want, "%s: Masked/SDC/DUE %v, recorded %v", key, got, want)
			continue
		}
		t0 := time.Now()
		tally, res, err := decomposedCampaign(r.tr, rn, plans[k], seed, group)
		d := time.Since(t0)
		replayRuns += len(res)
		if err != nil {
			r.check(false, "%s: %v", group, err)
			continue
		}
		lat[1] = append(lat[1], d.Seconds())
		trials[1] += tally.Injected
		wall[1] += d
		want, ok := r.expected.InjectTraced[key]
		got := [3]int{tally.Masked, tally.SDC, tally.DUE}
		r.check(ok && got == want, "%s traced: Masked/SDC/DUE %v, recorded %v", key, got, want)
		r.check(batchN < 0 || tally.Injected == batchN,
			"%s: traced campaign ran %d trials, RunWithRunner %d", key, tally.Injected, batchN)
		total.Masked += tally.Masked
		total.SDC += tally.SDC
		total.DUE += tally.DUE
		for _, t := range res {
			busy += t.dur
			kind := t.rec.Outcome.String()
			if t.rec.Outcome == kernels.DUE && t.rec.DUEMode == sim.DUEHang {
				byOutcome["hang"] = append(byOutcome["hang"], ms(t.dur))
			}
			if t.rec.Outcome == kernels.SDC {
				sdcWords += t.rec.CorruptWords
			}
			byOutcome[kind] = append(byOutcome[kind], ms(t.dur))
		}
	}
	probe.finish(r, trials[1])
	var restores, rejoins uint64
	for _, rn := range runners {
		a, b := rn.ReplayStats()
		restores, rejoins = restores+a, rejoins+b
	}
	n := float64(replayRuns)
	trialMs := r.tr.spanDurations("replay.trial")
	r.set("replay.trials", float64(len(trialMs)))
	r.set("replay.trial_ms_p50", median(trialMs))
	r.set("replay.trial_ms_p99", pct(trialMs, 99))
	r.set("replay.masked_ms_p50", median(byOutcome["Masked"]))
	r.set("replay.sdc_ms_p50", median(byOutcome["SDC"]))
	r.set("replay.due_ms_p50", median(byOutcome["DUE"]))
	r.set("replay.hang_ms_p50", median(byOutcome["hang"]))
	if n > 0 {
		r.set("replay.image_restore_ratio", float64(restores-restores0)/n)
		r.set("replay.rejoin_ratio", float64(rejoins-rejoins0)/n)
	}
	r.set("faultinj.plan_us", median(r.tr.spanDurations("faultinj.plan"))*1e3)
	r.set("faultinj.tally_us", median(r.tr.spanDurations("faultinj.tally"))*1e3)
	if wall[1] > 0 {
		r.set("faultinj.worker_idle_ratio", 1-busy.Seconds()/(wall[1].Seconds()*workers))
	}
	r.set("faultinj.masked", float64(total.Masked))
	r.set("faultinj.sdc", float64(total.SDC))
	r.set("faultinj.due", float64(total.DUE))
	r.set("patterns.observe_us", median(r.tr.spanDurations("patterns.observe"))*1e3)
	if total.SDC > 0 {
		r.set("patterns.corrupt_words_mean", float64(sdcWords)/float64(total.SDC))
	}
	r.note("ratios: image restores and rejoins over %d replays (untraced + traced); corrupt words over %d SDCs", replayRuns, total.SDC)
	setOverhead(r, trials, wall, median(lat[0]), median(lat[1]))
	return nil
}

// setOverhead reports the traced-minus-untraced difference in
// throughput and median campaign time.
func setOverhead(r *run, trials [2]int, wall [2]time.Duration, untracedP50, tracedP50 float64) {
	if wall[0] <= 0 || wall[1] <= 0 {
		return
	}
	u, t := float64(trials[0])/wall[0].Seconds(), float64(trials[1])/wall[1].Seconds()
	r.set("trace.untraced_trials_per_s", u)
	r.set("trace.trials_per_s_delta", t-u)
	r.set("trace.untraced_campaign_s_p50", untracedP50)
	r.set("trace.campaign_s_p50_delta", tracedP50-untracedP50)
	r.note("tracing overhead: %.1f vs %.1f trials/s untraced, campaign p50 %.4f vs %.4f s", t, u, tracedP50, untracedP50)
}

// recordInject runs every kernel's campaign-seed pool once.
func recordInject(e *expectedFile) error {
	dev := device.K40c()
	ents, err := entries(dev, append(append([]string(nil), singleLaunchKernels...), multiLaunchKernels...))
	if err != nil {
		return err
	}
	e.Inject = make(map[string][3]int)
	e.InjectTraced = make(map[string][3]int)
	for _, ent := range ents {
		rn, err := kernels.NewRunner(ent.Name, ent.Build, dev, faultinj.NVBitFI.OptLevel())
		if err != nil {
			return err
		}
		plans := campaignPlans(rn)
		for s := uint64(1); s <= campaignSeeds; s++ {
			res, err := faultinj.RunWithRunner(injectConfig(s), rn)
			if err != nil {
				return err
			}
			e.Inject[injectKey(ent.Name, s)] = [3]int{res.Masked, res.SDC, res.DUE}
			t, _, err := decomposedCampaign(nil, rn, plans, s, "")
			if err != nil {
				return err
			}
			if t.Injected != res.Injected {
				return fmt.Errorf("%s seed %d: decomposed campaign has %d trials, RunWithRunner %d", ent.Name, s, t.Injected, res.Injected)
			}
			e.InjectTraced[injectKey(ent.Name, s)] = [3]int{t.Masked, t.SDC, t.DUE}
		}
		fmt.Printf("recorded %s\n", ent.Name)
	}
	return nil
}
