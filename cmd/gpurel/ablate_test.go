package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/core"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/fit"
	"gpurel/internal/kernels"
	"gpurel/internal/profiler"
	"gpurel/internal/suite"
)

// TestAblateSmoke runs a tiny model ablation end to end: it exits 0,
// prints one row per model variant, and its full-model row is
// fit.Predict on core.Calibrate's unit FITs, the study's calibration.
func TestAblateSmoke(t *testing.T) {
	out, stderr, code := captureRun(t, "ablate", "-device", "volta", "-code", "FMXM", "-trials", "4", "-faults", "8")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "full model") || strings.HasPrefix(line, "without ") {
			rows = append(rows, line)
		}
	}
	if len(rows) != 5 {
		t.Fatalf("%d model rows, want 5:\n%s", len(rows), out)
	}

	dev := device.V100()
	e, err := suite.Find(suite.ForDevice(dev), "FMXM")
	if err != nil {
		t.Fatal(err)
	}
	cache := kernels.NewCache(0)
	_, units, err := core.Calibrate(dev, core.Options{MicroTrials: 4, Seed: 1}, cache)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cache.Get(e.Name, e.Build, dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := profiler.Profile(r)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := cache.Get(e.Name, e.Build, dev, faultinj.NVBitFI.OptLevel())
	if err != nil {
		t.Fatal(err)
	}
	avf, err := faultinj.RunWithRunner(faultinj.Config{
		Tool: faultinj.NVBitFI, FaultsPerClass: 2, TotalFaults: 8, Seed: 1,
	}, ir)
	if err != nil {
		t.Fatal(err)
	}
	p := fit.Predict(cp, avf, units, false, fit.Ablation{})
	want := fmt.Sprintf("%.4f", p.SDCFIT)
	if fields := strings.Fields(rows[0]); fields[len(fields)-2] != want {
		t.Errorf("full-model row %q, want predicted %s (fit.Predict on core.Calibrate's units)", rows[0], want)
	}
}

// captureRun runs gpurel with args and returns its standard output,
// its stderr and its exit status.
func captureRun(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = wr
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(rd)
		done <- string(b)
	}()
	var errBuf strings.Builder
	code = run(args, &errBuf)
	os.Stdout = saved
	wr.Close()
	return <-done, errBuf.String(), code
}
