// Package serve is the campaign daemon behind `gpurel serve`: a
// long-lived HTTP/JSON service that turns the repository's batch
// injection pipeline into adaptively-stopped, sharded campaigns.
//
// A campaign request names a workload, device, fault model (injector
// semantics), and a target Wilson 95% interval width. The engine shards
// trials across a worker pool using index-addressed split-RNG sampling
// (faultinj.ClassSampler), streams incremental Masked/SDC/DUE counts
// with their confidence intervals over SSE, and stops each instruction
// class as soon as its intervals are tight enough — replacing the fixed
// trial counts of the batch CLIs with the statistical budget the paper
// actually cares about. Built runners are shared across campaigns
// through a byte-budgeted LRU; long campaigns checkpoint on pause and
// resume across daemon restarts. See DESIGN.md §14.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"

	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/kernels"
	"gpurel/internal/pprofutil"
	"gpurel/internal/suite"
)

// Options configures a Server.
type Options struct {
	// SimWorkers bounds concurrent injection trials across all
	// campaigns (0: GOMAXPROCS). Per-campaign Request.Workers shares
	// this global budget.
	SimWorkers int
	// CacheBytes is the runner-cache budget (0: DefaultCacheBytes).
	CacheBytes int64
	// SpoolDir holds campaign checkpoints ("": a fresh temp dir).
	SpoolDir string
	// EnablePprof mounts /debug/pprof (off by default: the profiling
	// surface is for operators, not tenants).
	EnablePprof bool
	// Logf receives one line per campaign lifecycle event (nil: silent).
	Logf func(format string, args ...any)
}

// DefaultCacheBytes is the default runner-cache budget: four
// image-saturated runners' worth. kernels.ImageBudgetBytes bounds one
// runner's sub-launch images; the cache bounds how many such runners
// stay warm.
const DefaultCacheBytes = 4 * kernels.ImageBudgetBytes

// Server owns the campaign set, the runner cache, and the HTTP surface.
type Server struct {
	opts    Options
	cache   *kernels.Cache
	metrics *Metrics
	simSem  chan struct{}
	mux     *http.ServeMux

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string // creation order, for GET /campaigns
	nextID    int
}

// New builds a Server.
func New(opts Options) (*Server, error) {
	if opts.SimWorkers <= 0 {
		opts.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.SpoolDir == "" {
		dir, err := os.MkdirTemp("", "gpurel-serve-spool-")
		if err != nil {
			return nil, err
		}
		opts.SpoolDir = dir
	} else if err := os.MkdirAll(opts.SpoolDir, 0o755); err != nil {
		return nil, err
	}
	cacheBytes := opts.CacheBytes
	if cacheBytes <= 0 {
		cacheBytes = DefaultCacheBytes
	}
	s := &Server{
		opts:      opts,
		cache:     kernels.NewCache(cacheBytes),
		metrics:   newMetrics(),
		simSem:    make(chan struct{}, opts.SimWorkers),
		campaigns: make(map[string]*Campaign),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /campaigns", s.handleCreate)
	s.mux.HandleFunc("GET /campaigns", s.handleList)
	s.mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /campaigns/{id}/counts", s.handleCounts)
	s.mux.HandleFunc("GET /campaigns/{id}/stream", s.handleStream)
	s.mux.HandleFunc("POST /campaigns/{id}/pause", s.handlePause)
	s.mux.HandleFunc("POST /campaigns/{id}/resume", s.handleResume)
	if opts.EnablePprof {
		pprofutil.RegisterHTTP(s.mux)
	}
	return s, nil
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// SpoolDir returns the checkpoint directory in use.
func (s *Server) SpoolDir() string { return s.opts.SpoolDir }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// requestDevice resolves a request's device label; empty means V100.
func requestDevice(name string) (*device.Device, error) {
	if strings.TrimSpace(name) == "" {
		return device.V100(), nil
	}
	return device.ByName(name)
}

// requestTool resolves a request's injector label; empty means NVBitFI.
func requestTool(name string) (faultinj.Tool, error) {
	if strings.TrimSpace(name) == "" {
		return faultinj.NVBitFI, nil
	}
	return faultinj.ParseTool(name)
}

// validate resolves and checks a request against the workload matrix:
// the suite must carry the code on that device, and the injector must
// be able to instrument it (§III-D, §VI restrictions).
func validate(req *Request) (faultinj.Tool, error) {
	req.defaults()
	dev, err := requestDevice(req.Device)
	if err != nil {
		return 0, err
	}
	tool, err := requestTool(req.Tool)
	if err != nil {
		return 0, err
	}
	if tool == faultinj.Sassifi && dev.Arch != device.Kepler {
		return 0, fmt.Errorf("serve: SASSIFI instruments Kepler only, not %s", dev.Name)
	}
	e, err := suite.Find(suite.ForDevice(dev), req.Code)
	if err != nil {
		return 0, err
	}
	if dev.Arch == device.Kepler && e.Library {
		return 0, fmt.Errorf("serve: no injector instruments proprietary-library code %s on Kepler", e.Name)
	}
	if tool == faultinj.NVBitFI && e.FP16 {
		return 0, fmt.Errorf("serve: NVBitFI cannot inject into half-precision code %s", e.Name)
	}
	if req.TargetWidth > 1 {
		return 0, fmt.Errorf("serve: target_width %g out of (0, 1]", req.TargetWidth)
	}
	return tool, nil
}

// runnerFor fetches the campaign's runner from the shared cache.
func (s *Server) runnerFor(req Request, tool faultinj.Tool) (*kernels.Runner, error) {
	dev, err := requestDevice(req.Device)
	if err != nil {
		return nil, err
	}
	e, err := suite.Find(suite.ForDevice(dev), req.Code)
	if err != nil {
		return nil, err
	}
	return s.cache.Get(e.Name, e.Build, dev, tool.OptLevel())
}

// Create validates a request, registers a campaign, and starts its
// engine goroutine. The in-process entry point behind POST /campaigns.
func (s *Server) Create(req Request) (*Campaign, error) {
	tool, err := validate(&req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("c%06d", s.nextID)
	c := newCampaign(id, req, tool, s)
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.logf("campaign %s: %s on %s, tool %s, width %.3g, seed %d",
		id, req.Code, req.Device, tool, req.TargetWidth, req.Seed)
	go c.run()
	return c, nil
}

// Get returns a live campaign by ID.
func (s *Server) Get(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// ResumeFromCheckpoint revives a checkpointed campaign that is not in
// memory — the daemon-restart half of pause/resume. The revived engine
// continues the trial sequence exactly where the checkpoint left it.
func (s *Server) ResumeFromCheckpoint(id string) (*Campaign, error) {
	s.mu.Lock()
	if _, ok := s.campaigns[id]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: campaign %s is live; use its resume endpoint", id)
	}
	s.mu.Unlock()
	c, err := s.loadCheckpoint(id)
	if err != nil {
		return nil, err
	}
	if _, err := validate(&c.req); err != nil {
		return nil, fmt.Errorf("serve: checkpoint %s: %w", id, err)
	}
	s.mu.Lock()
	if _, ok := s.campaigns[id]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: campaign %s is live; use its resume endpoint", id)
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.mu.Unlock()
	go c.run()
	if err := c.Resume(); err != nil {
		return nil, err
	}
	s.logf("campaign %s: resumed from checkpoint", id)
	return c, nil
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// maxRequestBytes bounds a campaign request body. A Request is eight
// scalar fields; anything near this size is not one.
const maxRequestBytes = 1 << 20

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("trailing data after the request object")
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: parsing request: %w", err))
		return
	}
	c, err := s.Create(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, c.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if c, ok := s.Get(id); ok {
			out = append(out, c.Status())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) campaignFromPath(w http.ResponseWriter, r *http.Request) (*Campaign, bool) {
	id := r.PathValue("id")
	c, ok := s.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no campaign %q", id))
		return nil, false
	}
	return c, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if c, ok := s.campaignFromPath(w, r); ok {
		writeJSON(w, http.StatusOK, c.Status())
	}
}

func (s *Server) handleCounts(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFromPath(w, r)
	if !ok {
		return
	}
	// Counts are the determinism-bearing artifact: emit them compactly
	// and canonically (struct field order, class-value order) so two
	// campaigns' bodies can be compared byte for byte.
	w.Header().Set("Content-Type", "application/json")
	data, err := json.Marshal(c.Counts())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Write(data)
	w.Write([]byte("\n"))
}

// handleStream serves the campaign as a server-sent-event stream: one
// `data:` line per engine round (and per lifecycle transition), closing
// after the terminal event. Clients that reconnect just get the current
// snapshot first — every event is a full status, not a delta.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFromPath(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	for {
		upd := c.Updated() // grab before snapshotting: no lost wakeups
		st := c.Status()
		data, err := json.Marshal(st)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return
		}
		if canFlush {
			flusher.Flush()
		}
		if st.Done() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-upd:
		}
	}
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFromPath(w, r)
	if !ok {
		return
	}
	if err := c.Pause(); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if c, ok := s.Get(id); ok {
		if err := c.Resume(); err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, c.Status())
		return
	}
	// Not live: try the spool — this is how a restarted daemon picks a
	// long campaign back up.
	c, err := s.ResumeFromCheckpoint(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.Render(w, s.cache)
}
