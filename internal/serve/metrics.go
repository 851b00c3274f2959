package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"gpurel/internal/kernels"
)

// Metrics is the daemon's counter set, exported at /metrics as one
// plain-text `name value` line per counter so the CI soak job can grep
// a line straight into its artifact. The format is Prometheus-
// compatible exposition minus the type annotations.
type Metrics struct {
	start time.Time

	campaignsActive    atomic.Int64
	campaignsCompleted atomic.Uint64
	campaignsFailed    atomic.Uint64
	campaignsPaused    atomic.Int64
	trials             atomic.Uint64
}

func newMetrics() *Metrics { return &Metrics{start: time.Now()} }

// TrialDone counts one completed injection trial.
func (m *Metrics) TrialDone() { m.trials.Add(1) }

// Trials returns the number of injection trials completed since start.
func (m *Metrics) Trials() uint64 { return m.trials.Load() }

// Render writes the counter lines.
func (m *Metrics) Render(w io.Writer, cache *kernels.Cache) {
	uptime := time.Since(m.start).Seconds()
	trials := m.trials.Load()
	perSec := 0.0
	if uptime > 0 {
		perSec = float64(trials) / uptime
	}
	hits, misses, evictions, usedBytes, entries := cache.Stats()
	fmt.Fprintf(w, "gpurel_uptime_seconds %.1f\n", uptime)
	fmt.Fprintf(w, "gpurel_campaigns_active %d\n", m.campaignsActive.Load())
	fmt.Fprintf(w, "gpurel_campaigns_paused %d\n", m.campaignsPaused.Load())
	fmt.Fprintf(w, "gpurel_campaigns_completed %d\n", m.campaignsCompleted.Load())
	fmt.Fprintf(w, "gpurel_campaigns_failed %d\n", m.campaignsFailed.Load())
	fmt.Fprintf(w, "gpurel_trials_total %d\n", trials)
	fmt.Fprintf(w, "gpurel_trials_per_sec %.1f\n", perSec)
	fmt.Fprintf(w, "gpurel_runner_cache_hits %d\n", hits)
	fmt.Fprintf(w, "gpurel_runner_cache_misses %d\n", misses)
	fmt.Fprintf(w, "gpurel_runner_cache_evictions %d\n", evictions)
	fmt.Fprintf(w, "gpurel_runner_cache_bytes %d\n", usedBytes)
	fmt.Fprintf(w, "gpurel_runner_cache_entries %d\n", entries)
}
