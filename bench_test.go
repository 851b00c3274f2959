// Benchmark harness: one benchmark per table and figure of the paper.
// Each benchmark runs a scaled-down version of the campaign that
// regenerates the artifact (the cmd/ tools run the full versions) and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// doubles as a smoke reproduction of the whole study.
package gpurel

import (
	"fmt"
	"syscall"
	"testing"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/beam"
	"gpurel/internal/core"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/fit"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/mem"
	"gpurel/internal/microbench"
	"gpurel/internal/profiler"
	"gpurel/internal/sim"
	"gpurel/internal/stats"
	"gpurel/internal/suite"
)

// benchRunner builds one workload's runner at one compiler
// configuration, failing the benchmark on a build error.
func benchRunner(b *testing.B, name string, build kernels.Builder, dev *device.Device, opt asm.OptLevel) *kernels.Runner {
	b.Helper()
	r, err := kernels.NewRunner(name, build, dev, opt)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// --- Table I ---

func benchProfileSuite(b *testing.B, dev *device.Device) {
	entries := suite.ForDevice(dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			r := benchRunner(b, e.Name, e.Build, dev, asm.O2)
			if _, err := profiler.Profile(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable1_Kepler(b *testing.B) { benchProfileSuite(b, device.K40c()) }
func BenchmarkTable1_Volta(b *testing.B)  { benchProfileSuite(b, device.V100()) }

// --- Figure 1 ---

func BenchmarkFig1_InstructionMix(b *testing.B) {
	dev := device.K40c()
	r := benchRunner(b, "FMXM", kernels.MxMBuilder(isa.F32), dev, asm.O2)
	b.ResetTimer()
	var fma float64
	for i := 0; i < b.N; i++ {
		cp, err := profiler.Profile(r)
		if err != nil {
			b.Fatal(err)
		}
		fma = cp.Mix[isa.ClassFMA]
	}
	b.ReportMetric(100*fma, "FMA%")
}

// --- Figure 3 ---

func benchMicroBeam(b *testing.B, dev *device.Device, micro string) {
	var build kernels.Builder
	for _, m := range microbench.Catalog(dev) {
		if m.Name == micro {
			build = m.Build
		}
	}
	if build == nil {
		b.Fatalf("no micro %s", micro)
	}
	r := benchRunner(b, micro, build, dev, asm.O2)
	b.ResetTimer()
	var fitRate float64
	for i := 0; i < b.N; i++ {
		res, err := beam.Run(beam.Config{ECC: micro != "RF", Trials: 60, Seed: uint64(i)}, r)
		if err != nil {
			b.Fatal(err)
		}
		fitRate = res.SDCFIT.Rate
	}
	b.ReportMetric(fitRate, "SDC-FIT-au")
}

func BenchmarkFig3_Micro_FADD_Kepler(b *testing.B) { benchMicroBeam(b, device.K40c(), "FADD") }
func BenchmarkFig3_Micro_IMAD_Kepler(b *testing.B) { benchMicroBeam(b, device.K40c(), "IMAD") }
func BenchmarkFig3_Micro_RF_Kepler(b *testing.B)   { benchMicroBeam(b, device.K40c(), "RF") }
func BenchmarkFig3_Micro_LDST_Kepler(b *testing.B) { benchMicroBeam(b, device.K40c(), "LDST") }
func BenchmarkFig3_Micro_HMMA_Volta(b *testing.B)  { benchMicroBeam(b, device.V100(), "HMMA") }
func BenchmarkFig3_Micro_DFMA_Volta(b *testing.B)  { benchMicroBeam(b, device.V100(), "DFMA") }

// --- Figure 4 ---

func BenchmarkFig4_AVF_SASSIFI(b *testing.B) {
	dev := device.K40c()
	r := benchRunner(b, "FMXM", kernels.MxMBuilder(isa.F32), dev, faultinj.Sassifi.OptLevel())
	b.ResetTimer()
	var avf float64
	for i := 0; i < b.N; i++ {
		res, err := faultinj.RunWithRunner(faultinj.Config{
			Tool: faultinj.Sassifi, FaultsPerClass: 15, Seed: uint64(i),
		}, r)
		if err != nil {
			b.Fatal(err)
		}
		avf = res.SDCAVF.P
	}
	b.ReportMetric(avf, "SDC-AVF")
}

func BenchmarkFig4_AVF_NVBitFI(b *testing.B) {
	dev := device.V100()
	r := benchRunner(b, "FGEMM", kernels.GEMMBuilder(isa.F32), dev, faultinj.NVBitFI.OptLevel())
	b.ResetTimer()
	var avf float64
	for i := 0; i < b.N; i++ {
		res, err := faultinj.RunWithRunner(faultinj.Config{
			Tool: faultinj.NVBitFI, TotalFaults: 60, Seed: uint64(i),
		}, r)
		if err != nil {
			b.Fatal(err)
		}
		avf = res.SDCAVF.P
	}
	b.ReportMetric(avf, "SDC-AVF")
}

// --- Figure 5 ---

func benchCodeBeam(b *testing.B, ecc bool) {
	dev := device.K40c()
	r := benchRunner(b, "FMXM", kernels.MxMBuilder(isa.F32), dev, asm.O2)
	b.ResetTimer()
	var fitRate float64
	for i := 0; i < b.N; i++ {
		res, err := beam.Run(beam.Config{ECC: ecc, Trials: 60, Seed: uint64(i)}, r)
		if err != nil {
			b.Fatal(err)
		}
		fitRate = res.SDCFIT.Rate
	}
	b.ReportMetric(fitRate, "SDC-FIT-au")
}

func BenchmarkFig5_CodeFIT_ECCOff(b *testing.B) { benchCodeBeam(b, false) }
func BenchmarkFig5_CodeFIT_ECCOn(b *testing.B)  { benchCodeBeam(b, true) }

// --- Figure 6 + §VII-B ---

// fig6Inputs builds the prediction inputs once (profiling + injection
// for one code, and the study's micro-benchmark calibration), so the
// benchmark isolates the model itself.
func fig6Inputs(b *testing.B) (*profiler.CodeProfile, *faultinj.Result, *fit.UnitFITs) {
	b.Helper()
	dev := device.K40c()
	cache := kernels.NewCache(0)
	_, units, err := core.Calibrate(dev, core.Options{MicroTrials: 40, Seed: 2}, cache)
	if err != nil {
		b.Fatal(err)
	}
	r, err := cache.Get("FMXM", kernels.MxMBuilder(isa.F32), dev, asm.O2)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := profiler.Profile(r)
	if err != nil {
		b.Fatal(err)
	}
	ir, err := cache.Get("FMXM", kernels.MxMBuilder(isa.F32), dev, faultinj.Sassifi.OptLevel())
	if err != nil {
		b.Fatal(err)
	}
	avf, err := faultinj.RunWithRunner(faultinj.Config{
		Tool: faultinj.Sassifi, FaultsPerClass: 15, Seed: 1,
	}, ir)
	if err != nil {
		b.Fatal(err)
	}
	return cp, avf, units
}

func BenchmarkFig6_Prediction(b *testing.B) {
	cp, avf, units := fig6Inputs(b)
	b.ResetTimer()
	var pred float64
	for i := 0; i < b.N; i++ {
		p := fit.Predict(cp, avf, units, false, fit.Ablation{})
		pred = p.SDCFIT
	}
	b.ReportMetric(pred, "pred-SDC-FIT-au")
}

func BenchmarkDUE_Underestimation(b *testing.B) {
	cp, avf, units := fig6Inputs(b)
	dev := device.K40c()
	r := benchRunner(b, "FMXM", kernels.MxMBuilder(isa.F32), dev, asm.O2)
	beamRes, err := beam.Run(beam.Config{ECC: true, Trials: 80, Seed: 4}, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		p := fit.Predict(cp, avf, units, true, fit.Ablation{})
		if p.DUEFIT > 0 {
			ratio = beamRes.DUEFIT.Rate / p.DUEFIT
		}
	}
	b.ReportMetric(ratio, "beam/pred-DUE")
}

// --- §V-B: MMA vs software MxM ---

func BenchmarkMMAvsSoftwareMxM(b *testing.B) {
	dev := device.V100()
	sw := benchRunner(b, "HMXM", kernels.MxMBuilder(isa.F16), dev, asm.O2)
	tc := benchRunner(b, "HGEMM-MMA", kernels.GEMMMMABuilder(true), dev, asm.O2)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		swRes, err := beam.Run(beam.Config{ECC: true, Trials: 60, Seed: uint64(i)}, sw)
		if err != nil {
			b.Fatal(err)
		}
		tcRes, err := beam.Run(beam.Config{ECC: true, Trials: 60, Seed: uint64(i)}, tc)
		if err != nil {
			b.Fatal(err)
		}
		if tcRes.SDCFIT.Rate > 0 {
			ratio = swRes.SDCFIT.Rate / tcRes.SDCFIT.Rate
		}
	}
	b.ReportMetric(ratio, "sw/tc-FIT")
}

// --- substrate benchmarks: raw simulator throughput ---

func BenchmarkSimGoldenMxM(b *testing.B) {
	dev := device.K40c()
	r := benchRunner(b, "FMXM", kernels.MxMBuilder(isa.F32), dev, asm.O2)
	var lane uint64
	for _, p := range r.GoldenProfiles() {
		lane += p.LaneOps
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kernels.NewRunner("FMXM", kernels.MxMBuilder(isa.F32), dev, asm.O2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(lane), "lane-ops/run")
}

func BenchmarkSimGoldenYOLOv3(b *testing.B) {
	dev := device.K40c()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kernels.NewRunner("FYOLOV3", kernels.YOLOBuilder(true, isa.F32), dev, asm.O2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate benchmarks: per-fault injection throughput ---

// benchPerFault measures the marginal cost of one injected fault under
// the checkpointed engine: a golden runner is built once, then each
// iteration runs one trial launch step by launch step (sim.Trial): the
// fault launch from its start image, in log mode where it can, then
// each later launch skipped, replayed for its reader blocks alone, or
// re-run, until the trial ends or memory is golden again. Block logs
// are recorded by the first iterations that need them. Triggers cycle
// through the first fifty filtered lane-ops — the definition the
// BENCH_v*.json snapshots and the CI gate track — so the metric prices
// early-fault replays.
func benchPerFault(b *testing.B, name string, build kernels.Builder) {
	dev := device.K40c()
	r := benchRunner(b, name, build, dev, asm.O2)
	nl := len(r.GoldenProfiles())
	b.ReportAllocs()
	b.ResetTimer()
	cpu0 := cpuNanos(b)
	for i := 0; i < b.N; i++ {
		plan := &sim.FaultPlan{Kind: sim.FaultValueBit, TriggerIndex: uint64(i % 50), Bit: i % 32}
		if _, err := r.RunTrialWithFault(plan, i%nl); err != nil {
			b.Fatal(err)
		}
	}
	reportPerFault(b, cpu0)
}

// cpuNanos is the user plus system CPU time the process has used.
func cpuNanos(b *testing.B) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// reportPerFault stops the timer of a per-fault benchmark and reports
// its throughput, wall time, and process CPU time (since cpu0) per
// fault. CPU time leaves out the time the process sat descheduled on
// a shared host.
func reportPerFault(b *testing.B, cpu0 int64) {
	cpu := cpuNanos(b) - cpu0
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "faults/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/fault")
		b.ReportMetric(float64(cpu)/float64(b.N), "cpu-ns/fault")
	}
}

// benchPerFaultUniform is the campaign-representative variant: triggers
// are sampled uniformly over the golden dynamic lane-op stream with a
// fixed-seed RNG — the same distribution the injection campaigns draw
// from — so the metric prices the fault mix a real campaign pays for
// (mid-launch triggers, SDC-heavy suffixes), not just early replays.
func benchPerFaultUniform(b *testing.B, name string, build kernels.Builder) {
	dev := device.K40c()
	r := benchRunner(b, name, build, dev, asm.O2)
	next := uniformPlans(r)
	b.ReportAllocs()
	b.ResetTimer()
	cpu0 := cpuNanos(b)
	for i := 0; i < b.N; i++ {
		plan, launch := next()
		if _, err := r.RunTrialWithFault(&plan, launch); err != nil {
			b.Fatal(err)
		}
	}
	reportPerFault(b, cpu0)
}

// uniformPlans returns benchPerFaultUniform's plan sequence on r: each
// call gives the next value-bit fault, its trigger drawn uniformly over
// the golden non-control lane-ops with a fixed-seed RNG, and the launch
// it lands in.
func uniformPlans(r *kernels.Runner) func() (sim.FaultPlan, int) {
	ops := r.LaunchLaneOps(func(op isa.Op) bool { return !op.IsControl() })
	var total uint64
	for _, n := range ops {
		total += n
	}
	rng := stats.NewRNG(0xb7e151628aed2a6a, 0x9e3779b97f4a7c15)
	return func() (sim.FaultPlan, int) {
		t := uint64(rng.Int64N(int64(total)))
		launch := 0
		for launch < len(ops)-1 && t >= ops[launch] {
			t -= ops[launch]
			launch++
		}
		return sim.FaultPlan{Kind: sim.FaultValueBit, TriggerIndex: t, Bit: rng.IntN(32)}, launch
	}
}

// TestPerFaultUniformLogStats pins how the first 600 plans of
// BenchmarkSimPerFaultFMXMUniform replay (DESIGN §19): the launches
// finished in log mode, the accesses the fence resolved from golden
// write seqs, and the fallbacks by reason. Unlike the benchmark's
// times, the counts do not depend on the host.
func TestPerFaultUniformLogStats(t *testing.T) {
	r, err := kernels.NewRunner("FMXM", kernels.MxMBuilder(isa.F32), device.K40c(), asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	next := uniformPlans(r)
	for i := 0; i < 600; i++ {
		plan, launch := next()
		if _, err := r.RunTrialWithFault(&plan, launch); err != nil {
			t.Fatal(err)
		}
	}
	want := kernels.LogStats{Logged: 585, Prefixed: 593, Resolved: 169, PCMismatch: 8}
	if got := r.LogStats(); got != want {
		t.Errorf("log stats %+v, want %+v", got, want)
	}
}

func BenchmarkSimPerFaultFMXM(b *testing.B) {
	benchPerFault(b, "FMXM", kernels.MxMBuilder(isa.F32))
}

func BenchmarkSimPerFaultYOLOv3(b *testing.B) {
	benchPerFault(b, "FYOLOV3", kernels.YOLOBuilder(true, isa.F32))
}

// BenchmarkSimPerFaultQuicksort and BenchmarkSimPerFaultBFS price the
// launches whose blocks read each other's words: QUICKSORT's one launch
// and BFS's launches 3–7 replay in log mode under the single-writer
// certificate (DESIGN §19).
func BenchmarkSimPerFaultQuicksort(b *testing.B) {
	benchPerFault(b, "QUICKSORT", kernels.QuicksortBuilder())
}

func BenchmarkSimPerFaultBFS(b *testing.B) {
	benchPerFault(b, "BFS", kernels.BFSBuilder())
}

// BenchmarkSimPerFaultQuicksortUniform and
// BenchmarkSimPerFaultMergesortUniform price campaign-representative
// faults in the most divergent codes: on the K40c at O2 an issue of
// QUICKSORT executes 11.8 of 32 lanes on average and one of MERGESORT
// 4.3, so masked handler loops carry much of their replay cost.
func BenchmarkSimPerFaultQuicksortUniform(b *testing.B) {
	benchPerFaultUniform(b, "QUICKSORT", kernels.QuicksortBuilder())
}

func BenchmarkSimPerFaultMergesortUniform(b *testing.B) {
	benchPerFaultUniform(b, "MERGESORT", kernels.MergesortBuilder())
}

func BenchmarkSimPerFaultFMXMUniform(b *testing.B) {
	benchPerFaultUniform(b, "FMXM", kernels.MxMBuilder(isa.F32))
}

func BenchmarkSimPerFaultYOLOv3Uniform(b *testing.B) {
	benchPerFaultUniform(b, "FYOLOV3", kernels.YOLOBuilder(true, isa.F32))
}

// BenchmarkSimPerFaultGaussianUniform prices the launch-boundary path:
// FGAUSSIAN's 46 short launches record no sub-launch images, so every
// fault restores a launch boundary and replays launch by launch until
// a boundary compare matches golden — one engine set-up per replayed
// launch.
func BenchmarkSimPerFaultGaussianUniform(b *testing.B) {
	benchPerFaultUniform(b, "FGAUSSIAN", kernels.GaussianBuilder())
}

// BenchmarkSimPerFaultFLUDUniform prices reader replays: a fault in one
// of FLUD's 46 launches dirties words that many blocks of the later
// launches read, and those blocks replay in log mode one after another
// (DESIGN §19).
func BenchmarkSimPerFaultFLUDUniform(b *testing.B) {
	benchPerFaultUniform(b, "FLUD", kernels.LUDBuilder())
}

// BenchmarkSimSnapshotRestore isolates the memory-checkpoint substrate:
// one restore + one full-region word diff per iteration over a
// workload-sized device memory.
func BenchmarkSimSnapshotRestore(b *testing.B) {
	g := mem.NewGlobal(1 << 22)
	if _, err := g.Alloc(1 << 20); err != nil {
		b.Fatal(err)
	}
	snap := g.Snapshot()
	b.SetBytes(int64(g.AllocatedBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FlipBit(uint64(i) * 977)
		g.Restore(snap)
		if !g.EqualSnapshot(snap) {
			b.Fatal("restore did not converge")
		}
	}
}

// BenchmarkAnalyzeSuite times the static analyzer alone: AnalyzeLaunch
// (forward facts plus the ACE backward solve) and the products it
// computes on first use (the DUE-mode solve and the lint), over every
// distinct launch program and geometry of the K40c suite at O2. The
// builds happen outside the timer.
func BenchmarkAnalyzeSuite(b *testing.B) {
	dev := device.K40c()
	type launch struct {
		prog   *isa.Program
		bounds analysis.Bounds
	}
	var launches []launch
	for _, e := range suite.ForDevice(dev) {
		inst, err := e.Build(dev, asm.O2)
		if err != nil {
			b.Fatal(err)
		}
		seen := map[string]bool{}
		for _, l := range inst.Launches {
			bounds := analysis.Bounds{GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads}
			if k := fmt.Sprint(l.Prog.Name, bounds); !seen[k] {
				seen[k] = true
				launches = append(launches, launch{l.Prog, bounds})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range launches {
			r := analysis.AnalyzeLaunch(launches[j].prog, &launches[j].bounds)
			r.DUEModes()
			r.Findings()
			analyzeSink = r
		}
	}
	b.ReportMetric(float64(len(launches)), "launches/op")
}

// analyzeSink keeps BenchmarkAnalyzeSuite's results live.
var analyzeSink *analysis.Result

// BenchmarkAnalyzeStaticConsumers times the static calls a K40c study
// makes on the cross-validation kernels, through one runner cache as
// the study does: StaticEstimate, StaticDUEModes, StaticHidden and
// MeasuredHidden on the NVBitFI runner, then StaticEstimate and
// ExplainRunner on every optimization-matrix runner. Each iteration
// builds a fresh cache (golden runs included) with the timer stopped,
// so every iteration analyzes every launch anew.
func BenchmarkAnalyzeStaticConsumers(b *testing.B) {
	dev := device.K40c()
	var entries []suite.Entry
	for _, name := range faultinj.CrossValKernels {
		e, err := suite.Find(suite.ForDevice(dev), name)
		if err != nil {
			b.Fatal(err)
		}
		entries = append(entries, e)
	}
	type cell struct {
		r      *kernels.Runner
		matrix bool
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache := kernels.NewCache(0)
		var cells []cell
		for _, e := range entries {
			r, err := cache.Get(e.Name, e.Build, dev, faultinj.NVBitFI.OptLevel())
			if err != nil {
				b.Fatal(err)
			}
			cells = append(cells, cell{r, false})
			for _, opt := range asm.MatrixConfigs() {
				r, err := cache.Get(e.Name, e.Build, dev, opt)
				if err != nil {
					b.Fatal(err)
				}
				cells = append(cells, cell{r, true})
			}
		}
		b.StartTimer()
		for _, c := range cells {
			if _, err := faultinj.StaticEstimate(c.r, faultinj.NVBitFI); err != nil {
				b.Fatal(err)
			}
			if c.matrix {
				faultinj.ExplainRunner(c.r)
				continue
			}
			if _, err := faultinj.StaticDUEModes(c.r, faultinj.NVBitFI); err != nil {
				b.Fatal(err)
			}
			faultinj.StaticHidden(c.r)
			faultinj.MeasuredHidden(c.r)
		}
	}
	b.ReportMetric(float64(len(entries)), "codes/op")
}

func BenchmarkStudyTiny(b *testing.B) {
	if testing.Short() {
		b.Skip("study benchmark is heavy")
	}
	for i := 0; i < b.N; i++ {
		_, err := core.RunDevice(device.V100(), core.Options{
			MicroTrials: 20, CodeTrials: 15,
			SassifiPerClass: 5, NVBitFITotal: 20, MicroAVFFaults: 10,
			Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
