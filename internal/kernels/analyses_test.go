package kernels

import (
	"slices"
	"sync"
	"testing"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/device"
)

// TestRunnerAnalysesShared pins the launch-analysis memo's sharing
// rules: one *analysis.Result per distinct (program, bounds) pair per
// cache, and never one result for two launches that differ in either.
func TestRunnerAnalysesShared(t *testing.T) {
	dev := device.K40c()
	ccl := CCLBuilder()
	cache := NewCache(0)
	r, err := cache.Get("CCL", ccl, dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	// CCL ping-pongs two programs at one geometry: launch i shares
	// launch i-2's analysis, and only the first two are distinct.
	as := r.Analyses()
	launches := r.Instance().Launches
	if len(as) != len(launches) || len(as) < 4 {
		t.Fatalf("%d analyses for %d launches", len(as), len(launches))
	}
	if as[0] == as[1] {
		t.Fatal("CCL's two programs share one result")
	}
	for i := 2; i < len(as); i++ {
		if launches[i].Prog != launches[i-2].Prog {
			t.Fatalf("CCL launch %d no longer reruns launch %d's program", i, i-2)
		}
		if as[i] != as[i-2] {
			t.Fatalf("launch %d: equal program and bounds, distinct result", i)
		}
	}

	// Unrolling leaves CCL's loop-free kernel unchanged: the O2+u2
	// runner's program is a distinct pointer with identical content.
	u2, err := cache.Get("CCL", ccl, dev, asm.O2.WithUnroll(2))
	if err != nil {
		t.Fatal(err)
	}
	p, q := r.Instance().Launches[0].Prog, u2.Instance().Launches[0].Prog
	if p == q || !slices.Equal(p.Instrs, q.Instrs) {
		t.Fatal("O2 and O2+u2 CCL no longer build distinct, identical programs")
	}
	if u2.Analyses()[0] != as[0] {
		t.Fatal("content-identical programs from one cache do not share a result")
	}
	// A runner outside the cache has its own memo.
	own, err := NewRunner("CCL", ccl, dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	if own.Analyses()[0] == as[0] {
		t.Fatal("a runner built outside the cache shares the cache's memo")
	}

	// Different bounds, or one changed instruction, never share.
	l := r.Instance().Launches[0]
	b := analysis.Bounds{GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads}
	if cache.memo.analyze(p, b) != as[0] {
		t.Fatal("memo missed its own key")
	}
	wider := b
	wider.GridX++
	if cache.memo.analyze(p, wider) == as[0] {
		t.Fatal("different bounds share a result")
	}
	edited := *p
	edited.Instrs = slices.Clone(p.Instrs)
	edited.Instrs[0].Dst ^= 1
	if cache.memo.analyze(&edited, b) == as[0] {
		t.Fatal("programs differing in one instruction share a result")
	}

	// Concurrent first use of a fresh runner's analyses and their
	// on-demand products: every caller sees the same pointers.
	fresh, err := NewRunner("CCL", ccl, dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	type seen struct {
		a        *analysis.Result
		modes    *analysis.DUEModeVec
		findings []analysis.Finding
	}
	var wg sync.WaitGroup
	got := make([]seen, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := fresh.Analyses()[0]
			got[g] = seen{a, &a.DUEModes()[0], a.Findings()}
		}()
	}
	wg.Wait()
	if len(got[0].findings) == 0 {
		t.Fatal("CCL lints clean: no findings slice to compare")
	}
	for g, s := range got[1:] {
		if s.a != got[0].a || s.modes != got[0].modes ||
			len(s.findings) == 0 || &s.findings[0] != &got[0].findings[0] {
			t.Fatalf("goroutine %d saw different analysis products", g+1)
		}
	}
}
