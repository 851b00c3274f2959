package kernels_test

import (
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/kernels"
	"gpurel/internal/suite"
)

// TestSuiteLaunchesAreSingleWriter pins the traffic the block log path
// serves (DESIGN §19): every launch of every suite code, on both
// devices, at O0, O1 and O2, is single-writer, so its block log is
// Eligible. No suite code takes the launch step's ineligible branch
// (sim.LogIneligible); it is kept for safety, and the REDSUM test kernel
// covers it.
func TestSuiteLaunchesAreSingleWriter(t *testing.T) {
	for _, c := range []struct {
		dev   *device.Device
		codes int
	}{{device.K40c(), 13}, {device.V100(), 16}} {
		entries := suite.ForDevice(c.dev)
		if len(entries) != c.codes {
			t.Errorf("%s runs %d suite codes, want %d", c.dev.Name, len(entries), c.codes)
		}
		for _, e := range entries {
			for _, opt := range []asm.OptLevel{asm.O0, asm.O1, asm.O2} {
				r, err := kernels.NewRunner(e.Name, e.Build, c.dev, opt)
				if err != nil {
					t.Fatal(err)
				}
				for i := range r.Instance().Launches {
					if bl, err := r.BlockLog(i); err != nil || !bl.Eligible() {
						t.Errorf("%s on %s at %v: launch %d is not single-writer (%v)", e.Name, c.dev.Name, opt, i, err)
					}
				}
			}
		}
	}
}
