package fit

import (
	"math"
	"testing"

	"gpurel/internal/beam"
	"gpurel/internal/faultinj"
	"gpurel/internal/isa"
	"gpurel/internal/profiler"
	"gpurel/internal/stats"
)

func fakeUnits() *UnitFITs {
	return &UnitFITs{
		Device: "test",
		SDC: map[string]float64{
			"FADD": 5, "FMUL": 5.2, "FFMA": 6, "IADD": 20, "IMUL": 26,
			"IMAD": 29, "LDST": 2, "RF": 160,
		},
		DUE: map[string]float64{
			"FADD": 1, "FMUL": 1, "FFMA": 1.2, "IADD": 3, "IMUL": 3.5,
			"IMAD": 4, "LDST": 14, "RF": 8,
		},
		MicroAVF: map[string]float64{
			"FADD": 0.9, "FMUL": 0.9, "FFMA": 0.9, "IADD": 1, "IMUL": 1,
			"IMAD": 1, "LDST": 0.95, "RF": 1,
		},
		MicroPhi: map[string]float64{
			"FADD": 1, "FMUL": 1, "FFMA": 1, "IADD": 1, "IMUL": 1,
			"IMAD": 1, "LDST": 1, "RF": 1,
		},
		RFPerByteSDC: 160.0 / (1 << 20),
		RFPerByteDUE: 8.0 / (1 << 20),
	}
}

func fakeProfile() *profiler.CodeProfile {
	return &profiler.CodeProfile{
		Name:      "FAKE",
		IPC:       2.0,
		Occupancy: 0.5,
		PerOpLane: map[isa.Op]uint64{
			isa.OpFFMA: 600,
			isa.OpLDG:  200,
			isa.OpIADD: 100,
			isa.OpMOV:  100, // OTHERS: not covered by any micro
		},
		TotalLaneOps: 1000,
		MemoryBytes:  1 << 18, // 256 KB
	}
}

func fakeAVF() *faultinj.Result {
	mk := func(sdc, due float64) *faultinj.ClassAVF {
		n := 100
		return &faultinj.ClassAVF{
			Tally: faultinj.Tally{
				Injected: n,
				SDCAVF:   stats.NewProportion(int(sdc*float64(n)), n),
				DUEAVF:   stats.NewProportion(int(due*float64(n)), n),
			},
		}
	}
	return &faultinj.Result{
		Name: "FAKE",
		Tally: faultinj.Tally{
			Injected: 300,
			SDCAVF:   stats.NewProportion(90, 300),
			DUEAVF:   stats.NewProportion(30, 300),
		},
		PerClass: map[isa.Class]*faultinj.ClassAVF{
			isa.ClassFMA:  mk(0.4, 0.05),
			isa.ClassLDST: mk(0.2, 0.3),
			isa.ClassINT:  mk(0.5, 0.2),
		},
		ByMode: map[faultinj.Mode]*faultinj.ModeAVF{
			faultinj.ModeGPR: {
				Tally: faultinj.Tally{
					Injected: 100,
					SDCAVF:   stats.NewProportion(15, 100),
					DUEAVF:   stats.NewProportion(5, 100),
				},
			},
		},
	}
}

func TestPredictHandComputed(t *testing.T) {
	cp, avf, units := fakeProfile(), fakeAVF(), fakeUnits()
	p := Predict(cp, avf, units, true, Ablation{}) // ECC on: no memory term
	phi := 1.0                                     // 2.0 * 0.5

	wantFFMA := 0.6 * 0.4 * (6.0 / 0.9) * phi
	wantLDST := 0.2 * 0.2 * (2.0 / 0.95) * phi
	wantIADD := 0.1 * 0.5 * (20.0 / 1.0) * phi
	want := wantFFMA + wantLDST + wantIADD
	if math.Abs(p.SDCFIT-want) > 1e-9 {
		t.Fatalf("SDC prediction %g, want %g", p.SDCFIT, want)
	}
	if p.MemSDC != 0 {
		t.Fatal("ECC on must zero the memory term")
	}
	// 10% of lane-ops are MOV (OTHERS): coverage 0.9.
	if math.Abs(p.Covered-0.9) > 1e-9 {
		t.Fatalf("coverage %g, want 0.9", p.Covered)
	}
}

func TestPredictMemoryTermECCOff(t *testing.T) {
	cp, avf, units := fakeProfile(), fakeAVF(), fakeUnits()
	on := Predict(cp, avf, units, true, Ablation{})
	off := Predict(cp, avf, units, false, Ablation{})
	if off.SDCFIT <= on.SDCFIT {
		t.Fatal("disabling ECC must add the memory term")
	}
	wantMem := units.RFPerByteSDC * float64(cp.MemoryBytes) * 0.15
	if math.Abs(off.MemSDC-wantMem) > 1e-9 {
		t.Fatalf("memory term %g, want %g", off.MemSDC, wantMem)
	}
}

func TestPredictPhiScaling(t *testing.T) {
	cp, avf, units := fakeProfile(), fakeAVF(), fakeUnits()
	base := Predict(cp, avf, units, true, Ablation{})
	cp2 := *cp
	cp2.IPC = 4.0 // doubled phi
	doubled := Predict(&cp2, avf, units, true, Ablation{})
	if math.Abs(doubled.SDCFIT-2*base.SDCFIT) > 1e-9 {
		t.Fatalf("phi must scale the instruction term linearly: %g vs %g", doubled.SDCFIT, base.SDCFIT)
	}
}

func TestPredictMicroPhiNormalization(t *testing.T) {
	cp, avf, units := fakeProfile(), fakeAVF(), fakeUnits()
	base := Predict(cp, avf, units, true, Ablation{})
	units.MicroPhi["FFMA"] = 0.5 // the micro only ran at half utilization
	boosted := Predict(cp, avf, units, true, Ablation{})
	if boosted.SDCFIT <= base.SDCFIT {
		t.Fatal("lower micro phi must raise the inferred unit FIT")
	}
}

func TestFromMicroResults(t *testing.T) {
	mk := func(sdc, due int) *beam.Result {
		r := &beam.Result{Trials: 100}
		r.SDCFIT = statsRate(sdc, 100)
		r.DUEFIT = statsRate(due, 100)
		return r
	}
	results := map[string]*beam.Result{
		"FADD": mk(10, 2),
		"RF":   mk(80, 4),
	}
	u, err := FromMicroResults("dev", results, map[string]float64{"FADD": 0.9},
		map[string]float64{"FADD": 0.8}, map[string]float64{"FADD": 12.5}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if u.MicroAVF["FADD"] != 0.9 || u.MicroPhi["FADD"] != 0.8 {
		t.Fatal("micro AVF/phi lost")
	}
	if u.MicroAVF["RF"] != 0.85 {
		t.Fatalf("missing micro AVF should default to 0.85, got %g", u.MicroAVF["RF"])
	}
	if u.RFPerByteSDC <= 0 {
		t.Fatal("RF per-byte rate must be positive")
	}
	if u.MicroHiddenExposure["FADD"] != 12.5 {
		t.Fatalf("micro hidden exposure lost, got %g", u.MicroHiddenExposure["FADD"])
	}
	if _, err := FromMicroResults("dev", map[string]*beam.Result{"FADD": mk(1, 1)}, nil, nil, nil, 100); err == nil {
		t.Fatal("missing RF micro must error")
	}
}

func TestCompareConvention(t *testing.T) {
	c := Compare("X", true, faultinj.NVBitFI, 12, 1)
	if c.Ratio != 12 {
		t.Fatalf("ratio %g, want +12", c.Ratio)
	}
	c = Compare("X", true, faultinj.NVBitFI, 1, 7)
	if c.Ratio != -7 {
		t.Fatalf("ratio %g, want -7", c.Ratio)
	}
}

func statsRate(events, trials int) (r statsRateT) {
	return statsRateFromCounts(events, trials)
}

type statsRateT = stats.RateEstimate

func statsRateFromCounts(events, trials int) stats.RateEstimate {
	return stats.NewRateEstimate(events, float64(trials))
}

// TestPredictPinned pins Predict's outputs on the fakes, at both ECC
// states, for the paper's model and each single switched-off term. The
// fakes get a phi of 0.3 and two micros below full utilization, so every
// switch moves the numbers.
func TestPredictPinned(t *testing.T) {
	cp, avf, units := fakeProfile(), fakeAVF(), fakeUnits()
	cp.IPC = 0.6
	units.MicroPhi["FFMA"] = 0.5
	units.MicroPhi["IADD"] = 0.8
	for _, tc := range []struct {
		ab                  Ablation
		ecc                 bool
		sdcFIT, dueFIT, mem float64
	}{
		{Ablation{}, true, 1.3602631578947366, 0.31176315789473685, 0},
		{Ablation{}, false, 7.360263157894737, 0.41176315789473683, 6},
		{Ablation{NoPhi: true}, true, 2.684210526315789, 0.9842105263157895, 0},
		{Ablation{NoPhi: true}, false, 8.68421052631579, 1.0842105263157895, 6},
		{Ablation{NoMicroPhiNorm: true}, true, 0.8052631578947368, 0.2952631578947369, 0},
		{Ablation{NoMicroPhiNorm: true}, false, 6.8052631578947365, 0.39526315789473687, 6},
		{Ablation{NoDemask: true}, true, 1.263, 0.29610000000000003, 0},
		{Ablation{NoDemask: true}, false, 7.263, 0.3961, 6},
		{Ablation{NoMemTerm: true}, true, 1.3602631578947366, 0.31176315789473685, 0},
		{Ablation{NoMemTerm: true}, false, 1.3602631578947366, 0.31176315789473685, 0},
	} {
		p := Predict(cp, avf, units, tc.ecc, tc.ab)
		for _, v := range []struct {
			name      string
			got, want float64
		}{{"SDCFIT", p.SDCFIT, tc.sdcFIT}, {"DUEFIT", p.DUEFIT, tc.dueFIT}, {"MemSDC", p.MemSDC, tc.mem}} {
			if math.Abs(v.got-v.want) > 1e-12*math.Max(1, math.Abs(v.want)) {
				t.Errorf("%+v ecc=%v: %s = %v, want %v", tc.ab, tc.ecc, v.name, v.got, v.want)
			}
		}
	}
}

func TestAblationNoPhi(t *testing.T) {
	cp, avf, units := fakeProfile(), fakeAVF(), fakeUnits()
	cp.IPC = 0.2 // phi = 0.1
	base := Predict(cp, avf, units, true, Ablation{})
	noPhi := Predict(cp, avf, units, true, Ablation{NoPhi: true})
	if noPhi.SDCFIT <= base.SDCFIT {
		t.Fatal("dropping phi for a low-utilization code must inflate the prediction")
	}
	if math.Abs(noPhi.SDCFIT-base.SDCFIT/0.1) > 1e-9 {
		t.Fatalf("NoPhi should divide out phi exactly: %g vs %g", noPhi.SDCFIT, base.SDCFIT/0.1)
	}
}

func TestAblationNoDemask(t *testing.T) {
	cp, avf, units := fakeProfile(), fakeAVF(), fakeUnits()
	base := Predict(cp, avf, units, true, Ablation{})
	raw := Predict(cp, avf, units, true, Ablation{NoDemask: true})
	if raw.SDCFIT >= base.SDCFIT {
		t.Fatal("skipping the de-masking must lower the prediction (micro AVFs < 1)")
	}
}

func TestAblationNoMemTerm(t *testing.T) {
	cp, avf, units := fakeProfile(), fakeAVF(), fakeUnits()
	with := Predict(cp, avf, units, false, Ablation{})
	without := Predict(cp, avf, units, false, Ablation{NoMemTerm: true})
	if without.MemSDC != 0 || without.SDCFIT >= with.SDCFIT {
		t.Fatal("NoMemTerm must drop the Eq. 3 contribution")
	}
}
