package faultinj

import (
	"reflect"
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/kernels"
	"gpurel/internal/suite"
)

func runMatrix(t *testing.T, dev *device.Device, code string, mc OptMatrixConfig) *OptMatrix {
	t.Helper()
	e, err := suite.Find(suite.ForDevice(dev), code)
	if err != nil {
		t.Fatal(err)
	}
	var runners []*kernels.Runner
	for _, opt := range asm.MatrixConfigs() {
		runners = append(runners, testRunner(t, e.Name, e.Build, dev, opt))
	}
	m, err := RunOptMatrix(mc, runners)
	if err != nil {
		t.Fatalf("%s on %s: %v", code, dev.Name, err)
	}
	return m
}

// TestMatrixOrderingAgreement is the cross-validation gate of the
// optimization matrix: at the study's default campaign size, the static
// per-configuration AVF ordering must not contradict the injection
// campaign's on any tested matrix (ties within OptOrderingEps are
// allowed; opposite-sign movements are not). gpurel lint -gate opt runs
// the same check over the full CrossValKernels set.
func TestMatrixOrderingAgreement(t *testing.T) {
	cases := []struct {
		dev  *device.Device
		code string
	}{
		{device.K40c(), "FMXM"},
		{device.K40c(), "NW"},
		{device.V100(), "FHOTSPOT"},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		m := runMatrix(t, c.dev, c.code, OptMatrixConfig{Faults: 160, Seed: 1})
		if len(m.Cells) < 6 {
			t.Fatalf("%s on %s: %d matrix cells, want >= 6", c.code, c.dev.Name, len(m.Cells))
		}
		if !m.OrderingAgrees() {
			con, dis := m.OrderingAgreement(OptOrderingEps)
			t.Errorf("%s on %s: static ordering contradicts injection: %d concordant, %d discordant (tau %.2f)",
				c.code, c.dev.Name, con, dis, m.OrderingTau(OptOrderingEps))
		}
		for _, cell := range m.Cells {
			if cell.Explain == nil || cell.Static == nil || cell.Dynamic == nil {
				t.Fatalf("%s on %s at %s: incomplete cell", c.code, c.dev.Name, cell.Opt)
			}
		}
	}
}

// TestMatrixWorkerIndependence pins the determinism contract the
// matrix artifacts rely on: campaign randomness is consumed entirely at
// single-threaded plan-build time, so the worker count must not change
// a single outcome.
func TestMatrixWorkerIndependence(t *testing.T) {
	dev := device.K40c()
	m1 := runMatrix(t, dev, "CCL", OptMatrixConfig{Faults: 80, Seed: 7, Workers: 1})
	m4 := runMatrix(t, dev, "CCL", OptMatrixConfig{Faults: 80, Seed: 7, Workers: 4})
	if len(m1.Cells) != len(m4.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(m1.Cells), len(m4.Cells))
	}
	for i := range m1.Cells {
		a, b := m1.Cells[i], m4.Cells[i]
		if a.Opt != b.Opt {
			t.Fatalf("cell %d: config %s vs %s", i, a.Opt, b.Opt)
		}
		if !reflect.DeepEqual(a.Dynamic, b.Dynamic) {
			t.Errorf("%s: injection outcomes depend on the worker count", a.Opt)
		}
		if !reflect.DeepEqual(a.Explain, b.Explain) || !reflect.DeepEqual(a.Static, b.Static) {
			t.Errorf("%s: static side depends on the worker count", a.Opt)
		}
	}
}
