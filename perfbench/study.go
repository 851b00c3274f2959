package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpurel/internal/asm"
	"gpurel/internal/beam"
	"gpurel/internal/core"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/kernels"
	"gpurel/internal/profiler"
	"gpurel/internal/suite"
)

// studySeeds is the size of the fixed study-seed pool; --seed picks the
// order in which studies visit it.
const studySeeds = 4

// studyOptions are the reduced campaign sizes of one K40c study: trials
// are a small share of it, so golden builds and static analysis
// dominate, as they do in the full gpurel-repro run.
func studyOptions(seed uint64, progress func(string, ...any)) core.Options {
	return core.Options{
		MicroTrials: 20, CodeTrials: 15, SassifiPerClass: 5, NVBitFITotal: 20,
		MicroAVFFaults: 10, OptFaults: 10, Workers: workers, Seed: seed,
		Progress: progress,
	}
}

// studyTallies flattens the study's injection campaigns into
// "TOOL/CODE" -> injected/SDC/DUE.
func studyTallies(ds *core.DeviceStudy) map[string][3]int {
	out := make(map[string][3]int)
	for _, tool := range []faultinj.Tool{faultinj.Sassifi, faultinj.NVBitFI} {
		for _, e := range suite.ForDevice(ds.Dev) {
			if res := ds.AVF[tool][e.Name]; res != nil {
				out[tool.String()+"/"+e.Name] = [3]int{res.Injected, res.SDC, res.DUE}
			}
		}
	}
	return out
}

// studyTrials counts the faulted trials a study ran: injection, beam,
// optimization-matrix, and two-level campaigns.
func studyTrials(ds *core.DeviceStudy) int {
	n := 0
	for _, byCode := range ds.AVF {
		for _, res := range byCode {
			n += res.Injected
		}
	}
	for _, res := range ds.MicroBeam {
		n += res.Trials
	}
	for _, res := range ds.Beam {
		n += res.Trials
	}
	for _, m := range ds.OptMatrix {
		for _, c := range m.Cells {
			n += c.Dynamic.Injected
		}
	}
	for _, t := range ds.TwoLevel {
		n += t.Trials
	}
	return n
}

// studyPhases maps Options.Progress line prefixes to RunDevice's
// phases, in the order the phases run.
var studyPhases = []struct{ metric, prefix string }{
	{"core.micro_beam_s", "micro beam"},
	{"core.profile_s", "profile"},
	{"core.inject_s", "SASSIFI|NVBitFI"},
	{"core.opt_matrix_s", "opt matrix"},
	{"core.two_level_s", "two-level"},
	{"core.beam_s", "beam"},
}

func phaseOf(line string) int {
	for i, p := range studyPhases {
		for _, pre := range strings.Split(p.prefix, "|") {
			if strings.HasPrefix(line, pre) {
				return i
			}
		}
	}
	return -1
}

func runStudy(r *run) error {
	dev := device.K40c()
	ents := suite.ForDevice(dev)
	// RunDevice builds its own runners, so setup_s here times a separate
	// build pass of the golden layer. Only a traced run keeps the runners,
	// for traceStudyLayers; an untraced one drops them so their footprint
	// stays out of peak_rss_mb.
	runners, err := setupRunners(r, dev, ents, asm.O2, 5)
	if err != nil {
		return err
	}
	if r.tr == nil {
		runners = nil
	}
	rng := rand.New(rand.NewPCG(r.seed, 0x57d1))
	var (
		lat    [2][]float64
		trials [2]int
		wall   [2]time.Duration
		phases = make([][]float64, len(studyPhases))
		probe  *runtimeProbe
		order  = rng.Perm(studySeeds)
		// per-study throughput and CPU per trial, medians reported
		rate, cpuPer []float64
	)
	if r.tr != nil {
		probe = startRuntimeProbe()
	}
	start := time.Now()
	for i := 0; !r.windowDone(start) || (r.tr != nil && i%2 == 1); i++ {
		// Studies visit the seed pool in a seed-permuted order; a traced
		// run pairs each untraced study with a traced one on its seed.
		traced, pair := 0, i
		if r.tr != nil {
			traced, pair = i%2, i/2
		}
		seed := uint64(order[pair%studySeeds]) + 1
		var mu sync.Mutex
		var ends []time.Time // last progress line of each phase
		progress := func(format string, args ...any) {
			if traced == 0 {
				return
			}
			p := phaseOf(fmt.Sprintf(format, args...))
			mu.Lock()
			defer mu.Unlock()
			for len(ends) <= p {
				ends = append(ends, time.Time{})
			}
			if p >= 0 {
				ends[p] = time.Now()
			}
		}
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		ds, err := core.RunDevice(dev, studyOptions(seed, progress))
		t1, c1 := time.Now(), cpuTime()
		if err != nil {
			r.check(false, "study seed %d: %v", seed, err)
			continue
		}
		lat[traced] = append(lat[traced], t1.Sub(t0).Seconds())
		n := studyTrials(ds)
		trials[traced] += n
		wall[traced] += t1.Sub(t0)
		rate = append(rate, float64(n)/t1.Sub(t0).Seconds())
		cpuPer = append(cpuPer, ms(c1-c0)/float64(n))
		checkStudy(r, seed, ds)
		if traced == 1 {
			tracePhases(r, t0, t1, ends, phases)
			traceStudyLayers(r, runners, seed)
		}
	}
	if r.tr == nil {
		r.check(len(rate) > 0, "no study completed in the window")
		r.set("trials_per_s", median(rate))
		r.set("cpu_ms_per_trial", median(cpuPer))
		setLatency(r, lat[0], 100)
		r.note("study_s %.4f s (median of %d studies, %d trials each)", median(lat[0]), len(lat[0]), trials[0]/max(len(lat[0]), 1))
		return nil
	}
	probe.finish(r, trials[1])
	for i, p := range studyPhases {
		r.set(p.metric, median(phases[i]))
	}
	setOverhead(r, trials, wall, median(lat[0]), median(lat[1]))
	return nil
}

// checkStudy compares the study's injection tallies with the recorded
// ones for its seed.
func checkStudy(r *run, seed uint64, ds *core.DeviceStudy) {
	want := r.expected.Study[strconv.FormatUint(seed, 10)]
	got := studyTallies(ds)
	r.check(len(want) > 0 && len(want) == len(got), "study seed %d: %d campaigns, %d recorded", seed, len(got), len(want))
	for _, tool := range []faultinj.Tool{faultinj.Sassifi, faultinj.NVBitFI} {
		for _, e := range suite.ForDevice(ds.Dev) {
			key := tool.String() + "/" + e.Name
			if g, ok := got[key]; ok {
				r.check(want[key] == g, "study seed %d %s: injected/SDC/DUE %v, recorded %v", seed, key, g, want[key])
			}
		}
	}
}

// tracePhases turns the study's progress timestamps into phase spans: a
// phase ends at its last progress line and starts where the previous
// one ended; the last phase ends when RunDevice returns.
func tracePhases(r *run, t0, t1 time.Time, ends []time.Time, phases [][]float64) {
	study := r.tr.begin("core.study", 0, "")
	study.Start = r.tr.at(t0)
	study.End = r.tr.at(t1)
	r.tr.add(study)
	from := t0
	for i, p := range studyPhases {
		to := t1
		if i < len(studyPhases)-1 {
			if i >= len(ends) || ends[i].IsZero() {
				continue
			}
			to = ends[i]
		}
		r.tr.add(span{Name: p.metric, ID: r.tr.next.Add(1), Parent: study.ID, Start: r.tr.at(from), End: r.tr.at(to)})
		phases[i] = append(phases[i], to.Sub(from).Seconds())
		from = to
	}
}

// traceStudyLayers times the analysis, profiler, and beam entry points
// on the set-up runners of the cross-validation kernels.
func traceStudyLayers(r *run, runners []*kernels.Runner, seed uint64) {
	var est, dm, expl, prof []float64
	for _, rn := range runners {
		if !crossVal(rn.Name) {
			continue
		}
		g := rn.Name
		sp := r.tr.begin("analysis.static_estimate", 0, g)
		_, err := faultinj.StaticEstimate(rn, faultinj.NVBitFI)
		est = append(est, ms(r.tr.end(sp)))
		r.check(err == nil, "static estimate %s: %v", g, err)
		sp = r.tr.begin("analysis.due_modes", 0, g)
		_, err = faultinj.StaticDUEModes(rn, faultinj.NVBitFI)
		dm = append(dm, ms(r.tr.end(sp)))
		r.check(err == nil, "static DUE modes %s: %v", g, err)
		sp = r.tr.begin("analysis.explain", 0, g)
		faultinj.ExplainRunner(rn)
		expl = append(expl, ms(r.tr.end(sp)))
		sp = r.tr.begin("profiler.profile", 0, g)
		_, err = profiler.Profile(rn)
		prof = append(prof, ms(r.tr.end(sp)))
		r.check(err == nil, "profile %s: %v", g, err)
	}
	r.set("analysis.static_estimate_ms", median(est))
	r.set("analysis.due_modes_ms", median(dm))
	r.set("analysis.explain_ms", median(expl))
	r.set("profiler.profile_ms", median(prof))
	const beamTrials = 400
	for _, rn := range runners {
		if rn.Name != "FMXM" {
			continue
		}
		sp := r.tr.begin("beam.campaign", 0, rn.Name)
		_, err := beam.Run(beam.Config{ECC: true, Trials: beamTrials, Workers: workers, Seed: seed}, rn)
		r.set("beam.trial_us", ms(r.tr.end(sp))*1e3/beamTrials)
		r.check(err == nil, "beam FMXM: %v", err)
	}
}

func crossVal(name string) bool {
	for _, k := range faultinj.CrossValKernels {
		if k == name {
			return true
		}
	}
	return false
}

// recordStudy runs every pool seed's study once.
func recordStudy(e *expectedFile) error {
	e.Study = make(map[string]map[string][3]int)
	for s := uint64(1); s <= studySeeds; s++ {
		ds, err := core.RunDevice(device.K40c(), studyOptions(s, nil))
		if err != nil {
			return err
		}
		e.Study[strconv.FormatUint(s, 10)] = studyTallies(ds)
		fmt.Printf("recorded study seed %d\n", s)
	}
	return nil
}
