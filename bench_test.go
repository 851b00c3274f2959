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

// --- Table I ---

func benchProfileSuite(b *testing.B, dev *device.Device) {
	entries := suite.ForDevice(dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			r, err := kernels.NewRunner(e.Name, e.Build, dev, asm.O2)
			if err != nil {
				b.Fatal(err)
			}
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
	r, err := kernels.NewRunner("FMXM", kernels.MxMBuilder(isa.F32), dev, asm.O2)
	if err != nil {
		b.Fatal(err)
	}
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
	r, err := kernels.NewRunner(micro, build, dev, asm.O2)
	if err != nil {
		b.Fatal(err)
	}
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
	b.ResetTimer()
	var avf float64
	for i := 0; i < b.N; i++ {
		res, err := faultinj.Run(faultinj.Config{
			Tool: faultinj.Sassifi, FaultsPerClass: 15, Seed: uint64(i),
		}, "FMXM", kernels.MxMBuilder(isa.F32), dev)
		if err != nil {
			b.Fatal(err)
		}
		avf = res.SDCAVF.P
	}
	b.ReportMetric(avf, "SDC-AVF")
}

func BenchmarkFig4_AVF_NVBitFI(b *testing.B) {
	dev := device.V100()
	b.ResetTimer()
	var avf float64
	for i := 0; i < b.N; i++ {
		res, err := faultinj.Run(faultinj.Config{
			Tool: faultinj.NVBitFI, TotalFaults: 60, Seed: uint64(i),
		}, "FGEMM", kernels.GEMMBuilder(isa.F32), dev)
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
	r, err := kernels.NewRunner("FMXM", kernels.MxMBuilder(isa.F32), dev, asm.O2)
	if err != nil {
		b.Fatal(err)
	}
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

// fig6Inputs builds the prediction inputs once (profiling + injection +
// micro beams for one code), so the benchmark isolates the model itself.
func fig6Inputs(b *testing.B) (*profiler.CodeProfile, *faultinj.Result, *fit.UnitFITs) {
	b.Helper()
	dev := device.K40c()
	r, err := kernels.NewRunner("FMXM", kernels.MxMBuilder(isa.F32), dev, asm.O2)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := profiler.Profile(r)
	if err != nil {
		b.Fatal(err)
	}
	avf, err := faultinj.Run(faultinj.Config{
		Tool: faultinj.Sassifi, FaultsPerClass: 15, Seed: 1,
	}, "FMXM", kernels.MxMBuilder(isa.F32), dev)
	if err != nil {
		b.Fatal(err)
	}
	micro := map[string]*beam.Result{}
	phi := map[string]float64{}
	var rfBytes int
	for _, m := range microbench.Catalog(dev) {
		mr, err := kernels.NewRunner(m.Name, m.Build, dev, asm.O2)
		if err != nil {
			b.Fatal(err)
		}
		res, err := beam.Run(beam.Config{ECC: m.Name != "RF", Trials: 40, Seed: 2}, mr)
		if err != nil {
			b.Fatal(err)
		}
		micro[m.Name] = res
		mp, err := profiler.Profile(mr)
		if err != nil {
			b.Fatal(err)
		}
		phi[m.Name] = mp.Phi()
		if m.Name == "RF" {
			l := mr.Instance().Launches[0]
			rfBytes = l.GridX * l.GridY * l.BlockThreads * l.Prog.NumRegs * 4
		}
	}
	units, err := fit.FromMicroResults(dev.Name, micro, nil, phi, nil, rfBytes)
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
		p := fit.Predict(cp, avf, units, false)
		pred = p.SDCFIT
	}
	b.ReportMetric(pred, "pred-SDC-FIT-au")
}

func BenchmarkDUE_Underestimation(b *testing.B) {
	cp, avf, units := fig6Inputs(b)
	dev := device.K40c()
	r, err := kernels.NewRunner("FMXM", kernels.MxMBuilder(isa.F32), dev, asm.O2)
	if err != nil {
		b.Fatal(err)
	}
	beamRes, err := beam.Run(beam.Config{ECC: true, Trials: 80, Seed: 4}, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		p := fit.Predict(cp, avf, units, true)
		if p.DUEFIT > 0 {
			ratio = beamRes.DUEFIT.Rate / p.DUEFIT
		}
	}
	b.ReportMetric(ratio, "beam/pred-DUE")
}

// --- §V-B: MMA vs software MxM ---

func BenchmarkMMAvsSoftwareMxM(b *testing.B) {
	dev := device.V100()
	sw, err := kernels.NewRunner("HMXM", kernels.MxMBuilder(isa.F16), dev, asm.O2)
	if err != nil {
		b.Fatal(err)
	}
	tc, err := kernels.NewRunner("HGEMM-MMA", kernels.GEMMMMABuilder(true), dev, asm.O2)
	if err != nil {
		b.Fatal(err)
	}
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
	r, err := kernels.NewRunner("FMXM", kernels.MxMBuilder(isa.F32), dev, asm.O2)
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkSimProfileTimeline quantifies the golden-run cost of the
// residency telemetry: the same launch sequence simulated with and
// without Config.SampleTimeline, reported as sampled-vs-bare overhead.
// The bench CI tier watches this next to the BenchmarkSimPerFault*
// baselines — fault replays never sample, so those must not move, and
// the golden-run overhead is expected to stay under ~10%.
func BenchmarkSimProfileTimeline(b *testing.B) {
	dev := device.K40c()
	run := func(sample bool) {
		inst, err := kernels.MxMBuilder(isa.F32)(dev, asm.O2)
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range inst.Launches {
			res, err := sim.Run(sim.Config{
				Device: dev, Program: l.Prog,
				GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads,
				SampleTimeline: sample,
			}, inst.Global)
			if err != nil || res.Outcome != sim.OutcomeOK {
				b.Fatalf("golden run failed: %v %v", err, res.DUEReason)
			}
		}
	}
	for _, mode := range []struct {
		name   string
		sample bool
	}{{"sampled", true}, {"bare", false}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(mode.sample)
			}
		})
	}
}

// --- substrate benchmarks: per-fault injection throughput ---

// benchPerFault measures the marginal cost of one injected fault under
// the checkpointed engine: a golden runner is built once, then each
// iteration restores the nearest golden image (sub-launch or launch
// boundary), simulates the faulted suffix, and cuts off as soon as the
// state rejoins golden. Triggers cycle through the first fifty filtered
// lane-ops — the definition the BENCH_v*.json snapshots and the CI gate
// track — so the metric prices the early-fault replay the sub-launch
// rejoin cutoff was built for.
func benchPerFault(b *testing.B, name string, build kernels.Builder) {
	dev := device.K40c()
	r, err := kernels.NewRunner(name, build, dev, asm.O2)
	if err != nil {
		b.Fatal(err)
	}
	nl := len(r.GoldenProfiles())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := &sim.FaultPlan{Kind: sim.FaultValueBit, TriggerIndex: uint64(i % 50), Bit: i % 32}
		if _, err := r.RunTrialWithFault(plan, i%nl); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "faults/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/fault")
	}
}

// benchPerFaultUniform is the campaign-representative variant: triggers
// are sampled uniformly over the golden dynamic lane-op stream with a
// fixed-seed RNG — the same distribution the injection campaigns draw
// from — so the metric prices the fault mix a real campaign pays for
// (mid-launch triggers, SDC-heavy suffixes), not just early replays.
func benchPerFaultUniform(b *testing.B, name string, build kernels.Builder) {
	dev := device.K40c()
	r, err := kernels.NewRunner(name, build, dev, asm.O2)
	if err != nil {
		b.Fatal(err)
	}
	ops := r.LaunchLaneOps(func(op isa.Op) bool { return !op.IsControl() })
	var total uint64
	for _, n := range ops {
		total += n
	}
	rng := stats.NewRNG(0xb7e151628aed2a6a, 0x9e3779b97f4a7c15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := uint64(rng.Int64N(int64(total)))
		launch := 0
		for launch < len(ops)-1 && t >= ops[launch] {
			t -= ops[launch]
			launch++
		}
		plan := &sim.FaultPlan{Kind: sim.FaultValueBit, TriggerIndex: t, Bit: rng.IntN(32)}
		if _, err := r.RunTrialWithFault(plan, launch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "faults/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/fault")
	}
}

func BenchmarkSimPerFaultFMXM(b *testing.B) {
	benchPerFault(b, "FMXM", kernels.MxMBuilder(isa.F32))
}

func BenchmarkSimPerFaultYOLOv3(b *testing.B) {
	benchPerFault(b, "FYOLOV3", kernels.YOLOBuilder(true, isa.F32))
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
// (forward facts plus the ACE and DUE-mode backward solves) over every
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
			analyzeSink = analysis.AnalyzeLaunch(launches[j].prog, &launches[j].bounds)
		}
	}
	b.ReportMetric(float64(len(launches)), "launches/op")
}

// analyzeSink keeps BenchmarkAnalyzeSuite's results live.
var analyzeSink *analysis.Result

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
