package pprofutil

import (
	"net/http"
	"net/http/pprof"
)

// RegisterHTTP wires the standard /debug/pprof handlers onto mux, the
// long-lived-process counterpart of the -cpuprofile/-memprofile flags:
// gpurel serve mounts it behind -pprof so a soaking daemon can be
// profiled live with
//
//	go tool pprof http://localhost:8397/debug/pprof/profile
//
// It registers explicit routes instead of importing net/http/pprof for
// its init side effect, which would silently expose the handlers on
// http.DefaultServeMux in every binary linking this package.
func RegisterHTTP(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
