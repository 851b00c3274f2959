// Package pprofutil wires runtime/pprof CPU and heap profiling into the
// campaign subcommands behind -cpuprofile/-memprofile flags. The
// profiles are the standard pprof protobuf format:
//
//	gpurel inject -code FMXM -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	go tool pprof cpu.pb.gz
package pprofutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

var (
	cpuPath *string
	memPath *string
	cpuFile *os.File
)

// AddFlags registers -cpuprofile and -memprofile on fs; call before
// fs.Parse.
func AddFlags(fs *flag.FlagSet) {
	cpuPath = fs.String("cpuprofile", "", "write a CPU profile (pprof format) to this file")
	memPath = fs.String("memprofile", "", "write a heap profile (pprof format) to this file on exit")
}

// Start begins CPU profiling when -cpuprofile was given. Call right
// after parsing and pair with a deferred Stop.
func Start() error {
	if cpuPath == nil || *cpuPath == "" {
		return nil
	}
	f, err := os.Create(*cpuPath)
	if err != nil {
		return fmt.Errorf("pprofutil: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("pprofutil: %w", err)
	}
	cpuFile = f
	return nil
}

// Stop finishes the CPU profile and writes the heap profile, when the
// respective flags were given. Idempotent.
func Stop() {
	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
		cpuFile = nil
	}
	if memPath != nil && *memPath != "" {
		f, err := os.Create(*memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pprofutil:", err)
			*memPath = ""
			return
		}
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "pprofutil:", err)
		}
		f.Close()
		*memPath = ""
	}
}
