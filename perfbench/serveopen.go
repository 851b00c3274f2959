package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpurel/internal/faultinj"
	"gpurel/internal/serve"
)

const (
	// serveCapacity is the closed-loop capacity in arrivals per second
	// that --capacity measured on the arrival mix. The open loop offers
	// serveLoad of it: at 60% a slower stretch of a shared host pushed
	// the daemon near saturation and multiplied latencies (see
	// README.md).
	serveCapacity = 5.23
	serveLoad     = 0.4
	serveRate     = serveLoad * serveCapacity
	// serveCacheBytes holds about eight of the workload's twelve
	// runners (~58 MB together), so evictions force golden rebuilds
	// under load.
	serveCacheBytes = 40 << 20
	// sloLimit is the latency limit on a campaign, timed from its due
	// time; a campaign over it, failed, or refused is an SLO miss.
	sloLimit     = 2 * time.Second
	serveSeeds   = 4
	drainTimeout = 60 * time.Second
	// serveTailPct is serve-open's tail percentile: a 20 s run has three
	// cycles of the mix, 42 campaigns due, 10.5 beyond the p75.
	serveTailPct = 75
)

// serveShape is a request's stopping rule: target width, per-class
// trial floor, and round size.
type serveShape struct {
	width      float64
	min, batch int
}

// serveShapes are the stopping rules of the daemon's existing callers:
// the request defaults (width 0.25, min 16, batch 16) and tools/loadgen
// (width 0.15, batch 8, default min 16).
var serveShapes = []serveShape{{0.25, 16, 16}, {0.15, 16, 8}}

type serveTarget struct{ code, device string }

// serveTargets is the request mix: the cross-validation kernels on
// Kepler plus three Volta codes.
func serveTargets() []serveTarget {
	var out []serveTarget
	for _, k := range faultinj.CrossValKernels {
		out = append(out, serveTarget{k, "kepler"})
	}
	for _, k := range []string{"FMXM", "FHOTSPOT", "FLAVA"} {
		out = append(out, serveTarget{k, "volta"})
	}
	return out
}

func serveRequest(t serveTarget, s serveShape, seed uint64) serve.Request {
	return serve.Request{
		Code: t.code, Device: t.device, TargetWidth: s.width, Seed: seed,
		MinTrials: s.min, Batch: s.batch, Workers: workers,
	}
}

func serveKey(q serve.Request) string {
	return fmt.Sprintf("%s@%s/w%g/b%d/s%d", q.Code, q.Device, q.TargetWidth, q.Batch, q.Seed)
}

// daemon is an in-process gpurel-serve on a loopback listener, with the
// benchmark's clients: control requests share at most `workers`
// connections; each campaign's SSE watch holds its own stream.
type daemon struct {
	hs     *http.Server
	served chan error
	base   string
	spool  string
	ctl    *http.Client
	sse    *http.Client
}

func bootDaemon(r *run, rep int) (*daemon, error) {
	spool := filepath.Join(r.outDir, fmt.Sprintf("spool-%d-%d", os.Getpid(), rep))
	srv, err := serve.New(serve.Options{SimWorkers: workers, CacheBytes: serveCacheBytes, SpoolDir: spool})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(spool)
		return nil, err
	}
	d := &daemon{
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		spool:  spool,
		ctl: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers,
		}},
		sse: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	if _, err := d.get(context.Background(), "/healthz"); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the daemon, waits for its serve loop, and removes the
// spool.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if d.hs.Shutdown(ctx) != nil {
		d.hs.Close()
	}
	<-d.served
	d.ctl.CloseIdleConnections()
	d.sse.CloseIdleConnections()
	os.RemoveAll(d.spool)
}

// httpStatusError is a non-2xx response.
type httpStatusError struct {
	method, path string
	code         int
	body         string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("%s %s: %d %s", e.method, e.path, e.code, strings.TrimSpace(e.body))
}

func (d *daemon) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.ctl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return data, &httpStatusError{method, path, resp.StatusCode, string(data)}
	}
	return data, nil
}

func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	return d.call(ctx, http.MethodGet, path, nil)
}

// scrape reads the named /metrics counters.
func (d *daemon) scrape(names ...string) (map[string]float64, error) {
	data, err := d.get(context.Background(), "/metrics")
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool)
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			out[f[0]] = v
		}
	}
	return out, nil
}

// campaignRun is one request's life as the load generator saw it.
type campaignRun struct {
	req     serve.Request
	due     time.Time
	pause   bool // this copy is paused once it runs, then resumed
	twin    *campaignRun
	tr      *tracer // nil when this campaign is not traced
	id      string
	sent    time.Time
	created time.Time // create response received: the campaign is "building"
	end     time.Time
	final   serve.Status
	counts  []byte

	createMs, acquireMs, pauseMs, resumeMs float64
	roundMs                                []float64
	pauseSkipped                           bool

	requests int   // HTTP requests issued
	err      error // refusal, failed campaign, or transport error
}

// drive runs one campaign: create, watch its SSE stream to a terminal
// state (pausing and resuming it once if asked), then fetch /counts.
func (d *daemon) drive(ctx context.Context, c *campaignRun) {
	c.sent = time.Now()
	group := serveKey(c.req)
	body, err := json.Marshal(c.req)
	if err != nil {
		c.err = err
		return
	}
	sp := c.tr.begin("serve.create", 0, group)
	c.requests++
	data, err := d.call(ctx, http.MethodPost, "/campaigns", body)
	c.created = time.Now()
	c.createMs = ms(c.created.Sub(c.sent))
	c.tr.end(sp)
	if err != nil {
		c.err = fmt.Errorf("create refused: %w", err)
		return
	}
	var st serve.Status
	if err := json.Unmarshal(data, &st); err != nil {
		c.err = err
		return
	}
	c.id = st.ID
	group += "/" + c.id
	if err := d.watch(ctx, c, group); err != nil {
		c.err = err
		return
	}
	if c.final.State != serve.StateDone {
		c.err = fmt.Errorf("campaign %s %s: %s", c.id, c.final.State, c.final.Error)
		return
	}
	sp = c.tr.begin("serve.counts", 0, group)
	c.requests++
	c.counts, c.err = d.get(ctx, "/campaigns/"+c.id+"/counts")
	c.tr.end(sp)
}

// watch follows the campaign's SSE stream until it is done or failed.
func (d *daemon) watch(ctx context.Context, c *campaignRun, group string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/campaigns/"+c.id+"/stream", nil)
	if err != nil {
		return err
	}
	c.requests++
	resp, err := d.sse.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: %s", c.id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	building := c.created
	var lastRunning, pauseSent, resumeSent time.Time
	paused, resumed := false, false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		now := time.Now()
		var st serve.Status
		if err := json.Unmarshal([]byte(line[len("data: "):]), &st); err != nil {
			return fmt.Errorf("stream %s: %w", c.id, err)
		}
		// A resume ends at the first event after it: usually "running",
		// but a campaign with no trials left may report "done" at once.
		if resumed && c.resumeMs == 0 && st.State != serve.StatePaused && st.State != serve.StateBuilding {
			c.resumeMs = ms(now.Sub(resumeSent))
			c.tr.add(span{Name: "serve.resume", Group: group, Start: c.tr.at(resumeSent), End: c.tr.at(now)})
			lastRunning = now
			if st.State == serve.StateRunning {
				continue
			}
		}
		switch st.State {
		case serve.StateRunning:
			switch {
			case lastRunning.IsZero():
				c.acquireMs = ms(now.Sub(building))
				c.tr.add(span{Name: "serve.acquire", Group: group, Start: c.tr.at(building), End: c.tr.at(now)})
			default:
				c.roundMs = append(c.roundMs, ms(now.Sub(lastRunning)))
				c.tr.add(span{Name: "serve.round", Group: group, Start: c.tr.at(lastRunning), End: c.tr.at(now)})
			}
			lastRunning = now
			if c.pause && !paused {
				paused = true
				pauseSent = time.Now()
				c.requests++
				if _, err := d.call(ctx, http.MethodPost, "/campaigns/"+c.id+"/pause", nil); err != nil {
					var se *httpStatusError
					if !errors.As(err, &se) || se.code != http.StatusConflict {
						return err
					}
					// 409: the campaign finished before the pause reached it.
					c.pauseSkipped = true
				}
			}
		case serve.StatePaused:
			c.pauseMs = ms(now.Sub(pauseSent))
			c.tr.add(span{Name: "serve.pause", Group: group, Start: c.tr.at(pauseSent), End: c.tr.at(now)})
			resumed = true
			resumeSent = time.Now()
			c.requests++
			if _, err := d.call(ctx, http.MethodPost, "/campaigns/"+c.id+"/resume", nil); err != nil {
				return err
			}
		case serve.StateDone, serve.StateFailed:
			c.end, c.final = now, st
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream %s: %w", c.id, err)
	}
	return fmt.Errorf("stream %s ended before a terminal state", c.id)
}

// warmUp is the serve-open set-up: boot a daemon and run a one-trial-
// per-class campaign on every target, which builds every runner the
// workload uses (golden run included) through the daemon's cache.
func warmUp(r *run, rep int) (*daemon, error) {
	d, err := bootDaemon(r, rep)
	if err != nil {
		return nil, err
	}
	for _, t := range serveTargets() {
		q := serveRequest(t, serveShape{1, 1, 1}, 1)
		q.MaxTrials = 1
		c := &campaignRun{req: q}
		d.drive(context.Background(), c)
		if c.err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up %s: %w", serveKey(q), c.err)
		}
	}
	return d, nil
}

// cycleArrivals is the number of arrivals in one cycle of the mix.
var cycleArrivals = len(serveTargets()) + 1

// cycle returns cycle c of the arrival mix, shuffled: every target once,
// the stopping rules alternating between targets and cycles, plus one
// replica pair — two identical requests, of which the first is paused
// as soon as it runs and then resumed. Request seeds, rules, and the
// replica rotate with c, so a run of whole cycles offers the same
// requests whatever its seed; the seed sets only their order and due
// instants.
func cycle(rng *rand.Rand, c int) [][]*campaignRun {
	var out [][]*campaignRun
	targets := serveTargets()
	for ti, t := range targets {
		seed := uint64((c/len(serveShapes)+ti)%serveSeeds) + 1
		out = append(out, []*campaignRun{{req: serveRequest(t, serveShapes[(c+ti)%len(serveShapes)], seed)}})
	}
	q := serveRequest(targets[c%len(targets)], serveShapes[c%len(serveShapes)], uint64(c%serveSeeds)+1)
	a := &campaignRun{req: q, pause: true}
	b := &campaignRun{req: q, twin: a}
	a.twin = b
	out = append(out, []*campaignRun{a, b})
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// schedule draws the open loop from the seed: the whole cycles of the
// mix closest to serveRate arrivals per second over the window (at
// least one), evenly spaced, each due at the middle of its own slot of
// the window. The seed sets the order of arrivals; random instants
// within the slots made the tail depend on chance overlaps and spread
// it by half again.
func schedule(r *run, start time.Time) []*campaignRun {
	rng := rand.New(rand.NewPCG(r.seed, 0x5e7e))
	cycles := max(int(math.Round(serveRate*r.seconds.Seconds()/float64(cycleArrivals))), 1)
	slot := r.seconds.Seconds() / float64(cycles*cycleArrivals)
	var out []*campaignRun
	for c := 0; c < cycles; c++ {
		for j, arrival := range cycle(rng, c) {
			at := (float64(c*cycleArrivals+j) + 0.5) * slot
			for _, run := range arrival {
				run.due = start.Add(time.Duration(at * float64(time.Second)))
				out = append(out, run)
			}
		}
	}
	return out
}

var serveCounters = []string{
	"gpurel_trials_total", "gpurel_runner_cache_hits",
	"gpurel_runner_cache_misses", "gpurel_runner_cache_evictions",
}

func runServeOpen(r *run) error {
	var times []float64
	var d *daemon
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = warmUp(r, rep); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer d.close()
	r.set("setup_s", median(times))
	r.note("setup: daemon boot + %d runner warm-ups, %d times, median %.4f s", len(serveTargets()), len(times), median(times))

	before, err := d.scrape(serveCounters...)
	if err != nil {
		return err
	}
	var probe *runtimeProbe
	if r.tr != nil {
		probe = startRuntimeProbe()
	}
	start := time.Now()
	runs := schedule(r, start)
	for i, c := range runs {
		if r.tr != nil && i%2 == 1 {
			c.tr = r.tr
		}
	}
	// Trials and CPU are taken over the whole run, first due time to
	// drain: at 40% load many 1-second windows hold few trials.
	var tp throughput
	tp.mark(int(before["gpurel_trials_total"]))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var inflight, inflightMax atomic.Int64
	var lag []float64
	for _, c := range runs {
		time.Sleep(time.Until(c.due))
		lag = append(lag, ms(time.Since(c.due)))
		wg.Add(1)
		go func(c *campaignRun) {
			defer wg.Done()
			n := inflight.Add(1)
			for m := inflightMax.Load(); n > m && !inflightMax.CompareAndSwap(m, n); m = inflightMax.Load() {
			}
			d.drive(ctx, c)
			inflight.Add(-1)
		}(c)
	}
	time.Sleep(time.Until(start.Add(r.seconds)))
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		cancel()
		<-drained
	}
	after, err := d.scrape(serveCounters...)
	if err != nil {
		return err
	}
	tp.mark(int(after["gpurel_trials_total"]))
	trials := int(after["gpurel_trials_total"] - before["gpurel_trials_total"])
	tp.set(r, "the whole run, first due time to drain")
	return serveReport(r, runs, lag, inflightMax.Load(), before, after, probe, trials)
}

// serveReport checks every campaign's outputs and sets the metrics.
func serveReport(r *run, runs []*campaignRun, lag []float64, inflightMax int64, before, after map[string]float64, probe *runtimeProbe, trials int) error {
	var lat, latTraced, latUntraced, rateTraced, rateUntraced []float64
	var create, acquire, rounds, pauses, resumes []float64
	misses, refused, campaignTrials, baseline, skipped := 0, 0, 0, 0, 0
	for _, c := range runs {
		r.attempted += c.requests - 1 // the campaign's own check below counts one
		r.check(c.err == nil, "%s (%s): %v", serveKey(c.req), c.id, c.err)
		if c.err != nil {
			misses++
			if c.id == "" {
				refused++
			}
			continue
		}
		l := c.end.Sub(c.due).Seconds()
		lat = append(lat, l)
		if l > sloLimit.Seconds() {
			misses++
		}
		rate := float64(c.final.Trials) / c.end.Sub(c.sent).Seconds()
		if c.tr != nil {
			latTraced, rateTraced = append(latTraced, l), append(rateTraced, rate)
			c.tr.add(span{Name: "loadgen.campaign", Group: serveKey(c.req) + "/" + c.id, Start: c.tr.at(c.due), End: c.tr.at(c.end)})
		} else {
			latUntraced, rateUntraced = append(latUntraced, l), append(rateUntraced, rate)
		}
		create = append(create, c.createMs)
		acquire = append(acquire, c.acquireMs)
		rounds = append(rounds, c.roundMs...)
		if c.pause {
			if c.pauseSkipped {
				skipped++
			} else {
				pauses, resumes = append(pauses, c.pauseMs), append(resumes, c.resumeMs)
			}
		}
		campaignTrials += c.final.Trials
		baseline += c.final.BaselineTrials

		sum := sha256.Sum256(c.counts)
		got, want := hex.EncodeToString(sum[:]), r.expected.Serve[serveKey(c.req)]
		r.check(got == want, "%s: /counts digest %s, recorded %q", serveKey(c.req), got[:12], want)
		if c.pause && c.twin.err == nil {
			r.check(bytes.Equal(c.counts, c.twin.counts),
				"%s: paused-and-resumed /counts differs from its unpaused replica", serveKey(c.req))
		}
	}
	due := len(runs)
	setLatency(r, lat, serveTailPct)
	r.note("open loop: %d campaigns due in %s, %d refused, %d SLO misses (limit %s), %d pauses (%d skipped: done first), in flight max %d",
		due, r.seconds, refused, misses, sloLimit, len(pauses)+skipped, skipped, inflightMax)
	r.note("slo_miss_ratio %.4f over %d campaigns due", float64(misses)/float64(max(due, 1)), due)
	if r.tr == nil {
		return nil
	}
	probe.finish(r, trials)
	hits := after["gpurel_runner_cache_hits"] - before["gpurel_runner_cache_hits"]
	lookups := hits + after["gpurel_runner_cache_misses"] - before["gpurel_runner_cache_misses"]
	r.set("serve.campaigns", float64(len(lat)))
	r.set("serve.create_ms_p50", median(create))
	r.set("serve.acquire_ms_p50", median(acquire))
	r.set("serve.acquire_ms_p95", pct(acquire, 95))
	r.set("serve.round_ms_p50", median(rounds))
	r.set("serve.pause_ms_p50", median(pauses))
	r.set("serve.resume_ms_p50", median(resumes))
	r.set("serve.cache_lookups", lookups)
	if lookups > 0 {
		r.set("serve.cache_hit_ratio", hits/lookups)
	}
	r.set("serve.cache_evictions", after["gpurel_runner_cache_evictions"]-before["gpurel_runner_cache_evictions"])
	if len(lat) > 0 {
		r.set("serve.trials_per_campaign", float64(campaignTrials)/float64(len(lat)))
	}
	r.set("serve.baseline_trials", float64(baseline))
	if baseline > 0 {
		r.set("serve.savings_ratio", 1-float64(campaignTrials)/float64(baseline))
	}
	r.set("serve.inflight_max", float64(inflightMax))
	r.set("loadgen.due", float64(due))
	r.set("loadgen.lag_ms_p95", pct(lag, 95))
	r.set("loadgen.slo_miss_ratio", float64(misses)/float64(max(due, 1)))
	ut, tt := median(rateUntraced), median(rateTraced)
	r.set("trace.untraced_trials_per_s", ut)
	r.set("trace.trials_per_s_delta", tt-ut)
	r.set("trace.untraced_campaign_s_p50", median(latUntraced))
	r.set("trace.campaign_s_p50_delta", median(latTraced)-median(latUntraced))
	r.note("tracing overhead: per-campaign trial rate %.1f vs %.1f /s untraced, latency p50 %.4f vs %.4f s",
		tt, ut, median(latTraced), median(latUntraced))
	return nil
}

// recordServe runs every pool request once, two at a time, and records
// the digest of its /counts body.
func recordServe(r *run, e *expectedFile) error {
	d, err := warmUp(r, 0)
	if err != nil {
		return err
	}
	defer d.close()
	var pool []*campaignRun
	for _, t := range serveTargets() {
		for _, sh := range serveShapes {
			for s := uint64(1); s <= serveSeeds; s++ {
				pool = append(pool, &campaignRun{req: serveRequest(t, sh, s)})
			}
		}
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, c := range pool {
		wg.Add(1)
		sem <- struct{}{}
		go func(c *campaignRun) {
			defer wg.Done()
			defer func() { <-sem }()
			d.drive(context.Background(), c)
		}(c)
	}
	wg.Wait()
	e.Serve = make(map[string]string)
	for _, c := range pool {
		if c.err != nil {
			return fmt.Errorf("%s: %w", serveKey(c.req), c.err)
		}
		sum := sha256.Sum256(c.counts)
		e.Serve[serveKey(c.req)] = hex.EncodeToString(sum[:])
	}
	fmt.Printf("recorded %d serve requests\n", len(pool))
	return nil
}

// probeServeCapacity measures closed-loop capacity on the open loop's
// arrival mix: 2×workers clients each take the next arrival as soon as
// their previous one finishes.
func probeServeCapacity(r *run) error {
	d, err := warmUp(r, 0)
	if err != nil {
		return err
	}
	defer d.close()
	rng := rand.New(rand.NewPCG(r.seed, 0x5e7e))
	var mu sync.Mutex
	var pending [][]*campaignRun
	cycles := 0
	next := func() []*campaignRun {
		mu.Lock()
		defer mu.Unlock()
		if len(pending) == 0 {
			pending = cycle(rng, cycles)
			cycles++
		}
		a := pending[0]
		pending = pending[1:]
		return a
	}
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 2*workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !r.windowDone(start) {
				var pair sync.WaitGroup
				for _, c := range next() {
					pair.Add(1)
					go func(c *campaignRun) {
						defer pair.Done()
						d.drive(context.Background(), c)
					}(c)
				}
				pair.Wait()
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	rate := float64(done.Load()) / time.Since(start).Seconds()
	fmt.Printf("closed-loop capacity: %.2f arrivals/s (%d in %.1f s); %.0f%% is %.2f/s\n",
		rate, done.Load(), time.Since(start).Seconds(), 100*serveLoad, serveLoad*rate)
	return nil
}
