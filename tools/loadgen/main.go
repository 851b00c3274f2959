// Command loadgen soaks a running `gpurel serve` daemon with concurrent
// fault-injection campaigns and gates on the service's two promises:
//
//   - determinism: duplicate requests (same code/device/seed/width)
//     must land on byte-identical final /counts bodies no matter how
//     the daemon interleaved their trials;
//
//   - adaptive savings: every CrossValKernel must reach its target CI
//     width in fewer total trials than the fixed-count Wilson baseline
//     sized for the same guarantee.
//
//     go run ./tools/loadgen -addr 127.0.0.1:8397 -campaigns 200 -out serve-soak.txt
//
// The report (savings table per kernel, create/completion latency
// percentiles, throughput, a /metrics scrape) goes to -out; exit status
// is nonzero if any campaign fails, any determinism group diverges, or
// any kernel fails to beat its baseline.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/patterns"
	"gpurel/internal/serve"
	"gpurel/internal/suite"
)

// campaignRun is one submitted campaign's observed lifecycle.
type campaignRun struct {
	kernel     string
	group      int           // determinism group: same group => identical request
	req        serve.Request // the exact request this run submits
	id         string
	createLat  time.Duration
	totalLat   time.Duration // create -> terminal state
	status     serve.Status
	countsBody []byte
	err        error
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8397", "gpurel serve address")
	campaigns := flag.Int("campaigns", 200, "total campaigns to push (all in flight at once)")
	dup := flag.Int("dup", 4, "identical campaigns per determinism group")
	width := flag.Float64("width", 0.15, "target Wilson CI width for every campaign")
	seed := flag.Uint64("seed", 1, "base seed; each determinism group gets base+group")
	out := flag.String("out", "serve-soak.txt", "report path (\"-\" for stdout)")
	wait := flag.Duration("wait", 30*time.Second, "how long to retry until the daemon is healthy")
	timeout := flag.Duration("timeout", 15*time.Minute, "overall soak deadline")
	flag.Parse()

	base := "http://" + *addr
	if err := waitHealthy(base, *wait); err != nil {
		fatal(err)
	}

	templates := kernelTemplates(*width)
	if len(templates) == 0 {
		fatal(fmt.Errorf("no runnable CrossValKernels found"))
	}

	// Build the campaign list: round-robin over kernels, grouped into
	// determinism groups of -dup identical requests. Group g of kernel
	// k uses seed base+g, so groups are disjoint sampling universes
	// while members of one group must agree bit-for-bit.
	runs := make([]*campaignRun, 0, *campaigns)
	for i := 0; len(runs) < *campaigns; i++ {
		tpl := templates[i%len(templates)]
		group := i / len(templates)
		req := tpl.req
		req.Seed = *seed + uint64(group)
		for d := 0; d < *dup && len(runs) < *campaigns; d++ {
			runs = append(runs, &campaignRun{kernel: req.Code, group: group, req: req})
		}
	}

	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	deadline := start.Add(*timeout)
	var wg sync.WaitGroup
	for _, run := range runs {
		wg.Add(1)
		go func(run *campaignRun) {
			defer wg.Done()
			run.err = drive(client, base, run.req, run, deadline)
		}(run)
	}
	wg.Wait()
	wall := time.Since(start)

	metricsBody, _ := fetch(client, base+"/metrics")

	report, failures := render(runs, wall, metricsBody)
	if *out == "-" {
		fmt.Print(report)
	} else if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
		fatal(err)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d failure(s); see report\n", failures)
		if *out != "-" {
			fmt.Fprint(os.Stderr, report)
		}
		os.Exit(1)
	}
	fmt.Printf("loadgen: %d campaigns ok in %s (report: %s)\n", len(runs), wall.Round(time.Millisecond), *out)
}

// template pairs a request prototype with nothing else; the device is
// already resolved to whichever suite carries the kernel.
type template struct{ req serve.Request }

// kernelTemplates resolves each CrossValKernel to a device whose suite
// carries it (Volta preferred, Kepler fallback — NW and friends are
// Kepler-suite-only).
func kernelTemplates(width float64) []template {
	volta := suite.ForDevice(device.V100())
	kepler := suite.ForDevice(device.K40c())
	var out []template
	for _, name := range faultinj.CrossValKernels {
		// Batch 8 keeps round-boundary overshoot (at most batch-1
		// trials past the stopping point per class) small relative to
		// the per-class baseline, so the savings table reflects the
		// stopping rule rather than scheduling quantization.
		req := serve.Request{Code: name, TargetWidth: width, Workers: 4, Batch: 8}
		if _, err := suite.Find(volta, name); err == nil {
			req.Device = "volta"
		} else if _, err := suite.Find(kepler, name); err == nil {
			req.Device = "kepler"
		} else {
			continue
		}
		out = append(out, template{req: req})
	}
	return out
}

// drive runs one campaign end to end: create, poll to a terminal
// state, fetch the canonical counts body.
func drive(client *http.Client, base string, req serve.Request, run *campaignRun, deadline time.Time) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := client.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	run.createLat = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("create: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var st serve.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("create response: %v", err)
	}
	run.id = st.ID

	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("campaign %s: soak deadline exceeded in state %q", run.id, st.State)
		}
		data, err := fetch(client, base+"/campaigns/"+run.id)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
		if st.Done() {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	run.totalLat = time.Since(t0)
	run.status = st
	if st.State != serve.StateDone {
		return fmt.Errorf("campaign %s failed: %s", run.id, st.Error)
	}
	counts, err := fetch(client, base+"/campaigns/"+run.id+"/counts")
	if err != nil {
		return err
	}
	run.countsBody = counts
	return nil
}

func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return data, nil
}

func waitHealthy(base string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy after %s (last error: %v)", base, wait, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// render builds the soak report and returns it plus the failure count.
func render(runs []*campaignRun, wall time.Duration, metrics []byte) (string, int) {
	var b strings.Builder
	failures := 0
	fmt.Fprintf(&b, "gpurel serve soak: %d campaigns, wall %s, %.1f campaigns/sec\n\n",
		len(runs), wall.Round(time.Millisecond), float64(len(runs))/wall.Seconds())

	// Campaign failures.
	for _, r := range runs {
		if r.err != nil {
			failures++
			fmt.Fprintf(&b, "FAIL %-10s group %d: %v\n", r.kernel, r.group, r.err)
		}
	}
	if failures > 0 {
		fmt.Fprintf(&b, "\n")
	}

	// Determinism groups: every member must produce identical counts.
	type key struct {
		kernel string
		group  int
	}
	groups := map[key][][]byte{}
	for _, r := range runs {
		if r.err == nil {
			k := key{r.kernel, r.group}
			groups[k] = append(groups[k], r.countsBody)
		}
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kernel != keys[j].kernel {
			return keys[i].kernel < keys[j].kernel
		}
		return keys[i].group < keys[j].group
	})
	checked, diverged := 0, 0
	for _, k := range keys {
		bodies := groups[k]
		if len(bodies) < 2 {
			continue
		}
		checked++
		for _, body := range bodies[1:] {
			if !bytes.Equal(body, bodies[0]) {
				diverged++
				failures++
				fmt.Fprintf(&b, "DETERMINISM FAIL %s group %d: counts bodies differ\n  %s\n  %s\n",
					k.kernel, k.group, bodies[0], body)
				break
			}
		}
	}
	fmt.Fprintf(&b, "determinism: %d duplicate groups compared, %d diverged\n\n", checked, diverged)

	// Adaptive-savings table per CrossValKernel: total trials spent vs
	// the fixed-count Wilson baseline for the same width guarantee.
	// The hard per-kernel gate is that adaptive stopping actually
	// engaged — every class reached the target width without hitting
	// the trial cap. The savings gate is aggregate: a kernel whose
	// SDC rate sits at exactly 1/2 legitimately needs the worst-case
	// trial count, so per-kernel savings are reported, not enforced.
	fmt.Fprintf(&b, "%-12s %9s %9s %9s %9s %8s\n",
		"kernel", "campaigns", "trials", "baseline", "saved", "saved%")
	perKernel := map[string]*struct{ n, trials, baseline int }{}
	var kernels []string
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		agg := perKernel[r.kernel]
		if agg == nil {
			agg = &struct{ n, trials, baseline int }{}
			perKernel[r.kernel] = agg
			kernels = append(kernels, r.kernel)
		}
		agg.n++
		agg.trials += r.status.Trials
		agg.baseline += r.status.BaselineTrials
		for _, cs := range r.status.Classes {
			if cs.CapHit {
				failures++
				fmt.Fprintf(&b, "ADAPTIVE FAIL %s %s: class %s hit the trial cap before the target width\n",
					r.kernel, r.id, cs.Class)
			} else if cs.SDCWidth > r.req.TargetWidth || cs.DUEWidth > r.req.TargetWidth {
				failures++
				fmt.Fprintf(&b, "ADAPTIVE FAIL %s %s: class %s stopped at widths %.3f/%.3f above %g\n",
					r.kernel, r.id, cs.Class, cs.SDCWidth, cs.DUEWidth, r.req.TargetWidth)
			}
		}
	}
	sort.Strings(kernels)
	total, totalBase := 0, 0
	for _, k := range kernels {
		agg := perKernel[k]
		saved := agg.baseline - agg.trials
		pct := 100 * float64(saved) / float64(agg.baseline)
		fmt.Fprintf(&b, "%-12s %9d %9d %9d %9d %7.1f%%\n",
			k, agg.n, agg.trials, agg.baseline, saved, pct)
		total += agg.trials
		totalBase += agg.baseline
	}
	if totalBase > 0 {
		fmt.Fprintf(&b, "%-12s %9s %9d %9d %9d %7.1f%%\n",
			"TOTAL", "", total, totalBase, totalBase-total,
			100*float64(totalBase-total)/float64(totalBase))
		if total >= totalBase {
			failures++
			fmt.Fprintf(&b, "ADAPTIVE FAIL: aggregate %d trials did not beat the fixed baseline %d\n",
				total, totalBase)
		}
	}

	// SDC pattern rollup: aggregate the per-class pattern ledgers from
	// one representative counts body per determinism group (members are
	// byte-identical, so any member stands for the group). A kernel with
	// SDCs but a fully Unclassified ledger would mean the taxonomy is
	// not riding through the service — worth seeing in the soak report
	// even though it is not a gate.
	patTotals := map[string]*patterns.Ledger{}
	seenGroup := map[key]bool{}
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		k := key{r.kernel, r.group}
		if seenGroup[k] {
			continue
		}
		seenGroup[k] = true
		var counts serve.Counts
		if json.Unmarshal(r.countsBody, &counts) != nil {
			continue
		}
		led := patTotals[r.kernel]
		if led == nil {
			led = &patterns.Ledger{}
			patTotals[r.kernel] = led
		}
		for _, cc := range counts.Classes {
			led.Merge(cc.Patterns)
		}
	}
	patKernels := make([]string, 0, len(patTotals))
	for k := range patTotals {
		patKernels = append(patKernels, k)
	}
	sort.Strings(patKernels)
	fmt.Fprintf(&b, "\n%-12s %6s %7s %8s %8s %6s %10s %9s %10s %7s\n",
		"patterns", "sdc", "single", "same-row", "same-col", "block", "scattered", "critical", "tolerable", "uncls")
	for _, k := range patKernels {
		l := patTotals[k]
		fmt.Fprintf(&b, "%-12s %6d %7d %8d %8d %6d %10d %9d %10d %7d\n",
			k, l.SDCs(), l.Single, l.SameRow, l.SameCol, l.Block, l.Scattered,
			l.Critical, l.Tolerable, l.Unclassified)
	}

	// Latency percentiles.
	fmt.Fprintf(&b, "\n%-12s %10s %10s %10s\n", "latency", "p50", "p90", "p99")
	for _, row := range []struct {
		name string
		get  func(*campaignRun) time.Duration
	}{
		{"create", func(r *campaignRun) time.Duration { return r.createLat }},
		{"complete", func(r *campaignRun) time.Duration { return r.totalLat }},
	} {
		var lats []time.Duration
		for _, r := range runs {
			if r.err == nil {
				lats = append(lats, row.get(r))
			}
		}
		if len(lats) == 0 {
			continue
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Fprintf(&b, "%-12s %10s %10s %10s\n", row.name,
			pct(lats, 50), pct(lats, 90), pct(lats, 99))
	}

	if len(metrics) > 0 {
		fmt.Fprintf(&b, "\n-- /metrics --\n%s", metrics)
	}
	return b.String(), failures
}

func pct(sorted []time.Duration, p int) time.Duration {
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx].Round(100 * time.Microsecond)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
