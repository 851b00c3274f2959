package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pct returns the nearest-rank p-th percentile of xs, or 0 for none.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// throughput samples trials and process CPU at interval boundaries.
// trials_per_s and cpu_ms_per_trial are medians over the intervals,
// which a burst of interference from outside the process moves less
// than it moves a whole-window mean.
type throughput struct {
	at     []time.Time
	cpu    []time.Duration
	trials []int
}

// mark closes an interval at the given cumulative trial count.
func (t *throughput) mark(trials int) {
	t.at = append(t.at, time.Now())
	t.cpu = append(t.cpu, cpuTime())
	t.trials = append(t.trials, trials)
}

func (t *throughput) set(r *run, interval string) {
	var rate, cpu []float64
	for i := 1; i < len(t.at); i++ {
		n := float64(t.trials[i] - t.trials[i-1])
		if n == 0 {
			continue
		}
		rate = append(rate, n/t.at[i].Sub(t.at[i-1]).Seconds())
		cpu = append(cpu, ms(t.cpu[i]-t.cpu[i-1])/n)
	}
	r.check(len(rate) > 0, "no trial completed in the window")
	if len(rate) == 0 {
		return
	}
	last := len(t.at) - 1
	r.set("trials_per_s", median(rate))
	r.set("cpu_ms_per_trial", median(cpu))
	r.note("throughput: median over %d intervals (%s); overall %d trials in %.2f s wall, %.2f s CPU",
		len(rate), interval, t.trials[last]-t.trials[0], t.at[last].Sub(t.at[0]).Seconds(), (t.cpu[last] - t.cpu[0]).Seconds())
}

// setLatency reports the median campaign latency and the tail: the
// workload's fixed percentile p, chosen so that at least ten samples
// lie beyond it at the workload's campaign count (100, the maximum, for
// the handful of studies a run completes). Fixing it per workload keeps
// the metric's meaning when a slower host completes fewer campaigns.
func setLatency(r *run, lat []float64, p float64) {
	t := pct(lat, p)
	r.set("campaign_s_p50", median(lat))
	r.set("campaign_s_tail", t)
	beyond := float64(len(lat)) * (1 - p/100)
	r.note("campaign latency: n=%d, p50 %.4f s, tail p%g %.4f s (%.0f samples beyond)", len(lat), median(lat), p, t, beyond)
	if p < 100 && beyond < 10 {
		r.note("warning: fewer than 10 samples beyond the tail percentile")
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeProbe reads the Go runtime's GC CPU, allocation, and heap
// counters over a measurement pass; a sampler goroutine tracks the
// peak live heap.
type runtimeProbe struct {
	gc0, total0, alloc0 float64
	peak                atomic.Uint64
	stop                chan struct{}
	done                sync.WaitGroup
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

func startRuntimeProbe() *runtimeProbe {
	s := readRuntime()
	p := &runtimeProbe{
		gc0: sampleValue(s[0]), total0: sampleValue(s[1]), alloc0: sampleValue(s[2]),
		stop: make(chan struct{}),
	}
	p.peak.Store(uint64(sampleValue(s[3])))
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				if h := uint64(sampleValue(readRuntime()[3])); h > p.peak.Load() {
					p.peak.Store(h)
				}
			}
		}
	}()
	return p
}

// finish stops the sampler and stores the runtime.* metrics, with
// trials as the allocation base.
func (p *runtimeProbe) finish(r *run, trials int) {
	close(p.stop)
	p.done.Wait()
	s := readRuntime()
	if cpu := sampleValue(s[1]) - p.total0; cpu > 0 {
		r.set("runtime.gc_cpu_ratio", (sampleValue(s[0])-p.gc0)/cpu)
	}
	r.set("runtime.heap_peak_mb", float64(p.peak.Load())/(1<<20))
	if trials > 0 {
		r.set("runtime.alloc_mb_per_trial", (sampleValue(s[2])-p.alloc0)/(1<<20)/float64(trials))
	}
}

// span is one traced interval. Spans of one campaign share Group.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Group  string `json:"group,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin and end do nothing.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; pass its ID as the parent of nested spans.
func (t *tracer) begin(name string, parent int64, group string) span {
	if t == nil {
		return span{}
	}
	return span{Name: name, ID: t.next.Add(1), Parent: parent, Group: group,
		Start: int64(time.Since(t.t0))}
}

// end closes s and returns its duration.
func (t *tracer) end(s span) time.Duration {
	if t == nil {
		return 0
	}
	s.End = int64(time.Since(t.t0))
	t.add(s)
	return time.Duration(s.End - s.Start)
}

// add stores an already-closed span, e.g. one rebuilt from timestamps.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(ts time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(ts.Sub(t.t0))
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is one span name's aggregate: total duration and self time,
// the duration minus the part its children's intervals cover.
type selfTime struct {
	name        string
	n           int
	total, self time.Duration
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*selfTime)
	var names []string
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		dur := s.End - s.Start
		st.n++
		st.total += time.Duration(dur)
		st.self += time.Duration(dur - covered(s, children[s.ID]))
	}
	sort.Strings(names)
	out := make([]selfTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers; children may overlap (parallel workers).
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			sum += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return sum + curB - curA
}

func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "  %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range t.selfTimes() {
		fmt.Fprintf(w, "  %-28s %8d %12.1f %12.1f\n", st.name, st.n, ms(st.total), ms(st.self))
	}
}

// spanDurations returns the durations in ms of every span with the
// given name.
func (t *tracer) spanDurations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// expectedFile holds the recorded outputs of every workload's fixed
// input pool (perfbench/expected.json, regenerated with --record).
type expectedFile struct {
	// Inject maps "KERNEL/seed" to the campaign's Masked/SDC/DUE counts.
	Inject map[string][3]int `json:"inject"`
	// InjectTraced holds the same campaigns' counts as the traced run's
	// decomposed campaigns tally them.
	InjectTraced map[string][3]int `json:"inject_traced"`
	// Serve maps a request key to the SHA-256 of its /counts body.
	Serve map[string]string `json:"serve"`
	// Study maps a study seed to "TOOL/CODE" -> injected/SDC/DUE.
	Study map[string]map[string][3]int `json:"study"`
}

const expectedPath = "perfbench/expected.json"

func loadExpected() (*expectedFile, error) {
	var e expectedFile
	data, err := os.ReadFile(expectedPath)
	if err != nil {
		return nil, fmt.Errorf("reading recorded tallies: %w", err)
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", expectedPath, err)
	}
	return &e, nil
}

// recordExpected re-measures the workload's pool and rewrites its
// section of expected.json, keeping the other sections.
func recordExpected(r *run) error {
	e, err := loadExpected()
	if err != nil {
		e = &expectedFile{}
	}
	switch r.workload {
	case "inject-single", "inject-multi":
		err = recordInject(e)
	case "serve-open":
		err = recordServe(r, e)
	case "study":
		err = recordStudy(e)
	}
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(data, '\n'), 0o644)
}
