package beam

import (
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/kernels"
)

// TestHiddenLedgerConsistency checks the per-resource hidden-strike
// ledger against the coarse BySource bucket it refines: strike, SDC,
// and DUE counts must tie out exactly, and the derived fractions must
// be well-formed probabilities.
func TestHiddenLedgerConsistency(t *testing.T) {
	r, err := kernels.NewRunner("NW", kernels.NWBuilder(), device.K40c(), asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{ECC: true, Trials: 1500, Seed: 9}, r)
	if err != nil {
		t.Fatal(err)
	}
	var strikes, sdc, due int
	for h := device.HiddenResource(0); h < device.HiddenCount; h++ {
		strikes += res.ByHidden[h].Strikes
		sdc += res.ByHidden[h].SDC
		due += res.ByHidden[h].DUE
	}
	src := res.BySource[SrcHidden]
	if strikes != src.Strikes || sdc != src.SDC || due != src.DUE {
		t.Errorf("ByHidden totals (%d, %d, %d) != BySource[SrcHidden] (%d, %d, %d)",
			strikes, sdc, due, src.Strikes, src.SDC, src.DUE)
	}
	if res.HiddenStrikes() == 0 {
		t.Fatal("1500-trial campaign sampled no hidden strikes; the importance sampler is broken")
	}
	if f := res.HiddenDUEFraction(); f <= 0 || f > 1 {
		t.Errorf("HiddenDUEFraction = %.3f, want in (0, 1]", f)
	}
}

// TestHiddenLedgerDeterministicAcrossWorkers pins that the new ledger
// follows the split-RNG scheme: worker count must not change it.
func TestHiddenLedgerDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) Result {
		r, err := kernels.NewRunner("CCL", kernels.CCLBuilder(), device.K40c(), asm.O2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{ECC: true, Trials: 600, Workers: workers, Seed: 21}, r)
		if err != nil {
			t.Fatal(err)
		}
		return *res
	}
	a, b := run(1), run(4)
	if a.ByHidden != b.ByHidden {
		t.Errorf("hidden ledger differs across worker counts:\n 1: %+v\n 4: %+v", a.ByHidden, b.ByHidden)
	}
}
