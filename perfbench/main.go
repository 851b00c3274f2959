// Command perfbench is the repository benchmark: four workloads driven
// through the public entry points the CLIs and the daemon use, with
// their outputs checked against recorded tallies.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced units of work, records spans around
// the calls into each layer, and prints the per-layer metrics plus the
// tracing overhead. The last line of standard output is one JSON object
// {correct, attempted, failed, metrics}. README.md describes the
// workloads and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workers is the benchmark's concurrency: campaign workers, daemon
// simulation slots, control connections, and GOMAXPROCS. It matches the
// two vCPUs the benchmark was sized on.
const workers = 2

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, in BENCHMARK.json
// order. Every workload reports every one of them; "campaign" means one
// faultinj.RunWithRunner call (inject-*), one served campaign timed from
// its due time (serve-open), or one core.RunDevice study (study).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"trials_per_s", "1/s"},
	{"cpu_ms_per_trial", "ms"},
	{"campaign_s_p50", "s"},
	{"campaign_s_tail", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run reports. A layer the
// workload does not reach from the benchmark's side reads 0.
var perLayer = []metricDef{
	{"golden.runners", "count"},
	{"golden.build_ms", "ms"},
	{"golden.run_ms", "ms"},
	{"golden.ns_per_lane_op", "ns"},
	{"golden.footprint_mb", "MB"},
	{"replay.trials", "count"},
	{"replay.trial_ms_p50", "ms"},
	{"replay.trial_ms_p99", "ms"},
	{"replay.masked_ms_p50", "ms"},
	{"replay.sdc_ms_p50", "ms"},
	{"replay.due_ms_p50", "ms"},
	{"replay.hang_ms_p50", "ms"},
	{"replay.image_restore_ratio", "ratio"},
	{"replay.rejoin_ratio", "ratio"},
	{"faultinj.plan_us", "us"},
	{"faultinj.tally_us", "us"},
	{"faultinj.worker_idle_ratio", "ratio"},
	{"faultinj.masked", "count"},
	{"faultinj.sdc", "count"},
	{"faultinj.due", "count"},
	{"patterns.observe_us", "us"},
	{"patterns.corrupt_words_mean", "count"},
	{"serve.campaigns", "count"},
	{"serve.create_ms_p50", "ms"},
	{"serve.acquire_ms_p50", "ms"},
	{"serve.acquire_ms_p95", "ms"},
	{"serve.round_ms_p50", "ms"},
	{"serve.pause_ms_p50", "ms"},
	{"serve.resume_ms_p50", "ms"},
	{"serve.cache_lookups", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.trials_per_campaign", "count"},
	{"serve.baseline_trials", "count"},
	{"serve.savings_ratio", "ratio"},
	{"serve.inflight_max", "count"},
	{"loadgen.due", "count"},
	{"loadgen.lag_ms_p95", "ms"},
	{"loadgen.slo_miss_ratio", "ratio"},
	{"core.micro_beam_s", "s"},
	{"core.profile_s", "s"},
	{"core.inject_s", "s"},
	{"core.opt_matrix_s", "s"},
	{"core.two_level_s", "s"},
	{"core.beam_s", "s"},
	{"analysis.static_estimate_ms", "ms"},
	{"analysis.due_modes_ms", "ms"},
	{"analysis.explain_ms", "ms"},
	{"beam.trial_us", "us"},
	{"profiler.profile_ms", "ms"},
	{"runtime.gc_cpu_ratio", "ratio"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.alloc_mb_per_trial", "MB"},
	{"trace.spans", "count"},
	{"trace.untraced_trials_per_s", "1/s"},
	{"trace.trials_per_s_delta", "1/s"},
	{"trace.untraced_campaign_s_p50", "s"},
	{"trace.campaign_s_p50_delta", "s"},
}

// run is the state one benchmark invocation shares across its workload.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	outDir   string
	expected *expectedFile

	tr *tracer // nil for untraced runs

	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	notes     []string // printed beside the metric table
}

// check counts one checked operation, recording a failure when ok is
// false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*run) error{
	"inject-single": func(r *run) error { return runInject(r, singleLaunchKernels) },
	"inject-multi":  func(r *run) error { return runInject(r, multiLaunchKernels) },
	"serve-open":    runServeOpen,
	"study":         runStudy,
}

func main() {
	workload := flag.String("workload", "", "inject-single | inject-multi | serve-open | study")
	seed := flag.Uint64("seed", 1, "workload seed: picks the campaign sequence and the arrival schedule")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	record := flag.Bool("record", false, "re-measure the recorded tallies of the workload's fixed input pool into perfbench/expected.json")
	capacity := flag.Bool("capacity", false, "serve-open only: measure closed-loop daemon capacity instead")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		fatalf("unknown --workload %q (want inject-single, inject-multi, serve-open or study)", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(workers)

	outDir := os.Getenv("BENCH_OUT")
	if outDir == "" {
		outDir = ".bench_build"
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	r := &run{
		workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second,
		outDir:  outDir,
		metrics: make(map[string]float64),
	}
	if *record {
		if err := recordExpected(r); err != nil {
			fatalf("record: %v", err)
		}
		return
	}
	if *capacity {
		if *workload != "serve-open" {
			fatalf("--capacity applies to serve-open only")
		}
		if err := probeServeCapacity(r); err != nil {
			fatalf("capacity: %v", err)
		}
		return
	}
	exp, err := loadExpected()
	if err != nil {
		fatalf("%v", err)
	}
	r.expected = exp
	if *trace == 1 {
		r.tr = newTracer()
	}

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d | nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		r.workload, r.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if err := fn(r); err != nil {
		r.check(false, "%s: %v", r.workload, err)
	}
	if r.tr == nil {
		r.set("peak_rss_mb", peakRSSMB())
	} else {
		r.set("trace.spans", float64(r.tr.count()))
		path := filepath.Join(r.outDir, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			r.check(false, "writing spans: %v", err)
		} else {
			r.note("spans written to %s", path)
		}
		r.tr.printSelfTimes(os.Stdout)
	}
	os.Exit(r.report())
}

// report prints the metric table and the final JSON line, returning the
// exit code.
func (r *run) report() int {
	defs := endToEnd
	if r.tr != nil {
		defs = perLayer
	}
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	failedRatio := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Printf("  %-30s %14.6g %s\n", "failed_ratio", failedRatio, "ratio")
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := r.metrics[d.name]
		fmt.Printf("  %-30s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{v, d.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed: "+p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// windowDone reports whether the measurement window that began at start
// has elapsed.
func (r *run) windowDone(start time.Time) bool { return time.Since(start) >= r.seconds }
