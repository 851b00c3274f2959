package faultinj

import (
	"reflect"
	"testing"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/kernels"
	"gpurel/internal/suite"
)

// TestRunnerAnalysesExact checks that the runner's memoized launch
// analyses, which the static consumers read, are exactly what those
// consumers computed for themselves before the memo: a fresh
// launch-bounded analysis for the ACE, DUE-mode, fact and lint products,
// and an unbounded one for the hidden-resource model. Every suite code
// of both devices is built at O2 through one cache, so results shared
// across runners are covered too.
func TestRunnerAnalysesExact(t *testing.T) {
	cache := kernels.NewCache(0)
	for _, dev := range []*device.Device{device.K40c(), device.V100()} {
		for _, e := range suite.ForDevice(dev) {
			r, err := cache.Get(e.Name, e.Build, dev, asm.O2)
			if err != nil {
				t.Fatalf("%s/%s: %v", dev.Name, e.Name, err)
			}
			profiles := r.GoldenProfiles()
			for i, l := range r.Instance().Launches {
				got := r.Analyses()[i]
				want := analysis.AnalyzeLaunch(l.Prog, &analysis.Bounds{
					GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads,
				})
				for _, c := range []struct {
					name      string
					got, want any
				}{
					{"ACEVec", got.ACEVec, want.ACEVec},
					{"DUEModes", got.DUEModes(), want.DUEModes()},
					{"Facts", got.Facts, want.Facts},
					{"PredFacts", got.PredFacts, want.PredFacts},
					{"Findings", got.Findings(), want.Findings()},
				} {
					if !reflect.DeepEqual(c.got, c.want) {
						t.Errorf("%s/%s launch %d: memoized %s differs from a fresh analysis",
							dev.Name, e.Name, i, c.name)
					}
				}
				w := want.OpWeights(profiles[i].PerOpLane)
				unbounded := analysis.Analyze(l.Prog).HiddenEstimate(w)
				if h := got.HiddenEstimate(w); !reflect.DeepEqual(h, unbounded) {
					t.Errorf("%s/%s launch %d: bounded hidden estimate %+v, unbounded %+v",
						dev.Name, e.Name, i, h, unbounded)
				}
			}
		}
	}
}
