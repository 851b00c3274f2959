package core

import (
	"os"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/patterns"
	"gpurel/internal/suite"
)

// tinyOpts keeps the end-to-end study test affordable; statistical
// assertions below are correspondingly loose.
func tinyOpts() Options {
	return Options{
		MicroTrials: 40, CodeTrials: 30,
		SassifiPerClass: 10, NVBitFITotal: 40, MicroAVFFaults: 15,
		Seed: 3,
	}
}

func TestDeviceStudyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full device study is expensive")
	}
	ds, err := RunDevice(device.K40c(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Finalize(nil); err != nil {
		t.Fatal(err)
	}

	// Every Table I code is profiled.
	if len(ds.Profiles) != len(suite.Kepler()) {
		t.Fatalf("profiled %d codes, want %d", len(ds.Profiles), len(suite.Kepler()))
	}
	// Figure 3: all eight Kepler micros measured.
	if len(ds.MicroBeam) != 8 {
		t.Fatalf("micro campaigns: %d, want 8", len(ds.MicroBeam))
	}
	// Both injectors ran, skipping the library codes.
	for _, tool := range []faultinj.Tool{faultinj.Sassifi, faultinj.NVBitFI} {
		if _, ok := ds.AVF[tool]["FMXM"]; !ok {
			t.Fatalf("%v must cover FMXM", tool)
		}
		if _, ok := ds.AVF[tool]["FGEMM"]; ok {
			t.Fatalf("%v must not instrument library codes on Kepler", tool)
		}
	}
	// Beam matrix: all codes ECC on, the paper's subset ECC off.
	if _, ok := ds.Beam[BeamKey{"CCL", true}]; !ok {
		t.Fatal("CCL ECC-on beam missing")
	}
	if _, ok := ds.Beam[BeamKey{"CCL", false}]; ok {
		t.Fatal("CCL was not in the paper's ECC-off group")
	}
	if _, ok := ds.Beam[BeamKey{"FMXM", false}]; !ok {
		t.Fatal("FMXM ECC-off beam missing")
	}
	// Predictions exist for directly injectable codes.
	if _, ok := ds.Predictions[PredKey{"FMXM", true, faultinj.Sassifi}]; !ok {
		t.Fatal("FMXM SASSIFI prediction missing")
	}
	// Without Volta proxies, library codes have no prediction.
	if _, ok := ds.Predictions[PredKey{"FGEMM", true, faultinj.NVBitFI}]; ok {
		t.Fatal("FGEMM should need the Volta proxy")
	}
	// Units table sane.
	if ds.Units.SDC["IADD"] <= 0 {
		t.Fatal("IADD micro FIT missing")
	}
	if ds.Units.RFPerByteSDC <= 0 {
		t.Fatal("RF per-byte FIT missing")
	}
	// Static hidden-resource model: every profiled code has an estimate
	// with a proper conditional DUE probability.
	for name := range ds.Profiles {
		h, ok := ds.StaticHidden[name]
		if !ok {
			t.Fatalf("no static hidden estimate for %s", name)
		}
		if h.DUE <= 0 || h.DUE >= 1 {
			t.Fatalf("%s: static hidden DUE %.3f outside (0,1)", name, h.DUE)
		}
	}
	// The hidden-resource DUE correction must close the underestimation
	// gap: a strictly positive additive term on every prediction, so the
	// corrected factor is strictly smaller wherever the beam saw DUEs.
	if ds.Units.MeasuredHiddenDUEBase() <= 0 {
		t.Fatal("micro beam data yields no hidden DUE floor")
	}
	applied := 0
	for key, pred := range ds.Predictions {
		if pred.DUECorrectionMeasured <= 0 || pred.DUEFITCorrectedMeasured <= pred.DUEFIT {
			t.Fatalf("%+v: correction %.4f did not increase DUE FIT (%.4f -> %.4f)",
				key, pred.DUECorrectionMeasured, pred.DUEFIT, pred.DUEFITCorrectedMeasured)
		}
		applied++
	}
	if applied == 0 {
		t.Fatal("no predictions carried the hidden DUE correction")
	}
	for _, ecc := range []bool{false, true} {
		u, uok := ds.DUEUnderestimate[ecc]
		c, cok := ds.DUEMeasuredUnderestimate[ecc]
		if uok != cok {
			t.Fatalf("ecc=%v: corrected factor present=%v, uncorrected present=%v", ecc, cok, uok)
		}
		if uok && c >= u {
			t.Fatalf("ecc=%v: corrected underestimation %.1fx not below uncorrected %.1fx", ecc, c, u)
		}
	}
}

func TestInjectableMatrix(t *testing.T) {
	k := device.K40c()
	v := device.V100()
	kepler := suite.Kepler()
	volta := suite.Volta()
	find := func(list []suite.Entry, name string) suite.Entry {
		e, err := suite.Find(list, name)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, tc := range []struct {
		dev   *device.Device
		tool  faultinj.Tool
		e     suite.Entry
		ok    bool
		label string
	}{
		{k, faultinj.Sassifi, find(kepler, "FGEMM"), false, "SASSIFI cannot instrument CUBLAS on Kepler"},
		{k, faultinj.NVBitFI, find(kepler, "FGEMM"), false, "NVBitFI cannot instrument CUBLAS on Kepler"},
		{v, faultinj.NVBitFI, find(volta, "HGEMM"), false, "NVBitFI cannot instrument half-precision kernels"},
		{v, faultinj.Sassifi, find(volta, "FMXM"), false, "SASSIFI instruments Kepler only"},
		{v, faultinj.NVBitFI, find(volta, "FGEMM"), true, "NVBitFI instruments libraries on Volta"},
		{k, faultinj.Sassifi, find(kepler, "FMXM"), true, "plain codes are injectable"},
	} {
		if err := Injectable(tc.dev, tc.tool, tc.e); (err == nil) != tc.ok {
			t.Errorf("%s on %s under %s: Injectable = %v; %s", tc.e.Name, tc.dev.Name, tc.tool, err, tc.label)
		}
	}
}

func TestHashAndSeeds(t *testing.T) {
	if hash("FMXM") == hash("FGEMM") {
		t.Fatal("name hash collision")
	}
	if boolBit(true) == boolBit(false) {
		t.Fatal("ECC seed bit must differ")
	}
}

func TestBeamConfigsVolta(t *testing.T) {
	entries := suite.Volta()
	keys := BeamConfigs(device.V100(), entries)
	if len(keys) != len(entries) {
		t.Fatalf("Volta beams once per variant: %d vs %d", len(keys), len(entries))
	}
	for _, k := range keys {
		e, _ := suite.Find(entries, k.Code)
		if e.Library && !k.ECC {
			t.Fatalf("%s: Volta library codes beamed with ECC on", k.Code)
		}
		if !e.Library && k.ECC {
			t.Fatalf("%s: Volta plain codes beamed with ECC off", k.Code)
		}
	}
}

func TestResolveAVFProxies(t *testing.T) {
	ds := &DeviceStudy{
		Dev: device.K40c(),
		AVF: map[faultinj.Tool]map[string]*faultinj.Result{
			faultinj.NVBitFI: {},
		},
	}
	voltaAVF := map[string]*faultinj.Result{
		"FYOLOV3": {Name: "FYOLOV3"},
	}
	entries := suite.Kepler()
	yolo, _ := suite.Find(entries, "FYOLOV2")
	got, ok := ds.resolveAVF(faultinj.NVBitFI, yolo, voltaAVF)
	if !ok || got.Name != "FYOLOV3" {
		t.Fatal("FYOLOV2 must proxy to the Volta FYOLOV3 campaign")
	}
	if _, ok := ds.resolveAVF(faultinj.NVBitFI, yolo, nil); ok {
		t.Fatal("no proxy without Volta results")
	}
}

func TestPersistRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small study")
	}
	opts := tinyOpts()
	opts.CodeTrials = 15
	opts.MicroTrials = 20
	opts.NVBitFITotal = 20
	opts.SassifiPerClass = 5
	ds, err := RunDevice(device.V100(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Finalize(nil); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/study.json"
	if err := ds.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDeviceStudy(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dev.Name != ds.Dev.Name {
		t.Fatal("device lost")
	}
	if len(got.Profiles) != len(ds.Profiles) || len(got.Beam) != len(ds.Beam) ||
		len(got.Predictions) != len(ds.Predictions) || len(got.MicroBeam) != len(ds.MicroBeam) {
		t.Fatalf("shape lost: %d/%d profiles, %d/%d beams",
			len(got.Profiles), len(ds.Profiles), len(got.Beam), len(ds.Beam))
	}
	for key, want := range ds.Beam {
		gotRes, ok := got.Beam[key]
		if !ok || gotRes.SDCFIT.Rate != want.SDCFIT.Rate {
			t.Fatalf("beam entry %+v lost or altered", key)
		}
	}
	for key, want := range ds.Predictions {
		gotPred, ok := got.Predictions[key]
		if !ok || gotPred.SDCFIT != want.SDCFIT {
			t.Fatalf("prediction %+v lost or altered", key)
		}
		if gotPred.DUEFITCorrectedMeasured != want.DUEFITCorrectedMeasured {
			t.Fatalf("prediction %+v: corrected DUE FIT lost or altered", key)
		}
	}
	// This Volta study doubles as the second device of the acceptance
	// check: the corrected DUE prediction must beat the uncorrected one
	// here too, and both the hidden estimates and the corrected ratios
	// must survive the round trip.
	if len(got.StaticHidden) != len(ds.StaticHidden) || len(ds.StaticHidden) == 0 {
		t.Fatalf("static hidden estimates lost: %d/%d", len(got.StaticHidden), len(ds.StaticHidden))
	}
	for name, want := range ds.StaticHidden {
		if h, ok := got.StaticHidden[name]; !ok || h.DUE != want.DUE {
			t.Fatalf("static hidden estimate for %s lost or altered", name)
		}
	}
	for _, ecc := range []bool{false, true} {
		u, uok := ds.DUEUnderestimate[ecc]
		c, cok := ds.DUEMeasuredUnderestimate[ecc]
		if uok && (!cok || c >= u) {
			t.Fatalf("volta ecc=%v: corrected underestimation %.1fx not below uncorrected %.1fx", ecc, c, u)
		}
		if cok && got.DUEMeasuredUnderestimate[ecc] != c {
			t.Fatalf("volta ecc=%v: corrected ratio lost in round trip", ecc)
		}
	}
}

// TestLoadLegacyStudyNoDUEModes pins backward compatibility with
// studies saved before the DUE-mode taxonomy: a study_*.json with no
// StaticDUEModes section and no typed-DUE ledgers in its campaign
// tallies must load with an empty (never nil) mode map and zero-valued
// ledgers, so every renderer can consume old and new artifacts alike.
func TestLoadLegacyStudyNoDUEModes(t *testing.T) {
	legacy := `{
 "Device": "Tesla V100",
 "AVF": {
  "NVBitFI": {
   "FMXM": {"Name": "FMXM", "Device": "Tesla V100", "Injected": 10, "SDC": 2, "DUE": 3, "Masked": 5}
  }
 }
}`
	path := t.TempDir() + "/study_legacy.json"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDeviceStudy(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds.StaticDUEModes == nil {
		t.Fatal("legacy study loaded with nil StaticDUEModes map")
	}
	if len(ds.StaticDUEModes) != 0 {
		t.Fatalf("legacy study invented %d static mode estimates", len(ds.StaticDUEModes))
	}
	res := ds.AVF[faultinj.NVBitFI]["FMXM"]
	if res == nil {
		t.Fatal("legacy AVF entry lost")
	}
	if res.DUEModes.DUEs() != 0 {
		t.Fatalf("legacy tally grew a DUE-mode ledger: %+v", res.DUEModes)
	}
	if mix := res.DUEModes.Mix(); mix != (patterns.DUEMix{}) {
		t.Fatalf("legacy tally's mode mix = %+v, want zero", mix)
	}
	// Re-saving and re-loading the upgraded study must keep the map.
	if err := ds.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	again, err := LoadDeviceStudy(path)
	if err != nil {
		t.Fatal(err)
	}
	if again.StaticDUEModes == nil {
		t.Fatal("upgraded study lost the StaticDUEModes map")
	}
}
