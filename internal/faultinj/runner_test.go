package faultinj

import (
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/kernels"
)

// testRunner builds one workload's runner at one compiler configuration,
// failing the test on a build error.
func testRunner(tb testing.TB, name string, build kernels.Builder, dev *device.Device, opt asm.OptLevel) *kernels.Runner {
	tb.Helper()
	r, err := kernels.NewRunner(name, build, dev, opt)
	if err != nil {
		tb.Fatalf("%s on %s at %s: %v", name, dev.Name, opt, err)
	}
	return r
}

// campaign runs one injection campaign on a fresh runner built at the
// tool's own compiler pipeline, failing the test on any error.
func campaign(tb testing.TB, cfg Config, name string, build kernels.Builder, dev *device.Device) *Result {
	tb.Helper()
	res, err := RunWithRunner(cfg, testRunner(tb, name, build, dev, cfg.Tool.OptLevel()))
	if err != nil {
		tb.Fatalf("%s on %s: %v", name, dev.Name, err)
	}
	return res
}
