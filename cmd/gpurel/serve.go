package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"

	"gpurel/internal/kernels"
	"gpurel/internal/serve"
)

// serveCmd runs the campaign daemon: an HTTP/JSON service that executes
// sharded, adaptively-stopped fault-injection campaigns against the
// paper's workload suite (internal/serve, DESIGN.md §14).
//
//	gpurel serve -addr 127.0.0.1:8397
//	curl -d '{"code":"FMXM","device":"volta","target_width":0.2,"seed":1}' \
//	     http://127.0.0.1:8397/campaigns
//	curl http://127.0.0.1:8397/campaigns/c000001/stream     # SSE progress
//	curl http://127.0.0.1:8397/campaigns/c000001/counts     # final tallies
//
// Long campaigns pause (POST /campaigns/{id}/pause), checkpoint to the
// spool directory, and resume — across daemon restarts — with final
// counts byte-identical to an uninterrupted run.
func serveCmd(f *cmdFlags) func() error {
	addr := f.String("addr", "127.0.0.1:8397", "listen address")
	opts := serveOptions(f)
	return func() error {
		srv, err := serve.New(opts())
		if err != nil {
			return err
		}

		// Bind before announcing, so wrappers (scripts/check.sh serve, the
		// loadgen's retry loop) can treat the announcement line as "ready".
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		fmt.Printf("gpurel serve listening on http://%s (spool %s)\n", ln.Addr(), srv.SpoolDir())
		return http.Serve(ln, srv.Handler())
	}
}

// serveOptions defines the daemon's flags and returns the options they
// give once parsed. Log lines go to the subcommand's stderr behind a
// lock, since campaign goroutines log concurrently.
func serveOptions(f *cmdFlags) func() serve.Options {
	workers := f.workers()
	cacheBytes := f.Int64("cache-bytes", serve.DefaultCacheBytes,
		fmt.Sprintf("runner-cache budget in bytes (default 4x the %d-byte per-runner image budget)",
			kernels.ImageBudgetBytes))
	spool := f.String("spool", "", "campaign checkpoint directory (default: fresh temp dir)")
	pprofFlag := f.Bool("pprof", false, "expose /debug/pprof (operator profiling surface)")
	quiet := f.quiet()
	return func() serve.Options {
		o := serve.Options{
			SimWorkers:  *workers,
			CacheBytes:  *cacheBytes,
			SpoolDir:    *spool,
			EnablePprof: *pprofFlag,
		}
		if !*quiet {
			var mu sync.Mutex
			o.Logf = func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				f.progress(format, args...)
			}
		}
		return o
	}
}
