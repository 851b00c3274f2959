package kernels

import (
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
)

func TestCacheSharingAndEviction(t *testing.T) {
	dev := device.V100()
	mxm := MxMBuilder(isa.F32)
	// Generous budget: the second Get must hit.
	cache := NewCache(1 << 40)
	r1, err := cache.Get("FMXM", mxm, dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cache.Get("FMXM", mxm, dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("cache rebuilt a hot runner")
	}
	hits, misses, _, used, n := cache.Stats()
	if hits != 1 || misses != 1 || n != 1 {
		t.Fatalf("stats after two Gets: hits %d misses %d entries %d", hits, misses, n)
	}
	if used <= 0 || used != int64(r1.MemoryFootprint()) {
		t.Fatalf("cache charges %d bytes, runner footprint %d", used, r1.MemoryFootprint())
	}

	// A budget smaller than one runner: each new key evicts the old,
	// but the in-hand runner stays usable.
	tiny := NewCache(1)
	ra, err := tiny.Get("FMXM", mxm, dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tiny.Get("FLAVA", LavaBuilder(isa.F32), dev, asm.O2); err != nil {
		t.Fatal(err)
	}
	_, _, evictions, _, n := tiny.Stats()
	if evictions == 0 || n != 1 {
		t.Fatalf("tiny cache: evictions %d entries %d", evictions, n)
	}
	// Eviction drops only the cache's reference; the in-hand runner
	// still works (golden outcome on a clean replay).
	if got := ra.GoldenProfiles(); len(got) == 0 {
		t.Fatal("evicted runner lost its golden profiles")
	}

	// Budget 0 never evicts.
	unbounded := NewCache(0)
	for _, opt := range []asm.OptLevel{asm.O1, asm.O2} {
		if _, err := unbounded.Get("FMXM", mxm, dev, opt); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, evictions, _, n := unbounded.Stats(); evictions != 0 || n != 2 {
		t.Fatalf("unbounded cache: evictions %d entries %d, want 0 and 2", evictions, n)
	}
}

// TestCacheKeepsFinishedRunnerWhileAnotherBuilds pins that an in-flight
// build does not count as the resident runner: with one build blocked
// and one finished runner over budget, the finished runner stays.
func TestCacheKeepsFinishedRunnerWhileAnotherBuilds(t *testing.T) {
	dev := device.V100()
	mxm := MxMBuilder(isa.F32)
	started, release := make(chan struct{}), make(chan struct{})
	blocked := func(d *device.Device, opt asm.OptLevel) (*Instance, error) {
		close(started)
		<-release
		return mxm(d, opt)
	}
	cache := NewCache(1)
	done := make(chan error, 1)
	go func() {
		_, err := cache.Get("SLOW", blocked, dev, asm.O2)
		done <- err
	}()
	<-started

	r, err := cache.Get("FMXM", mxm, dev, asm.O2)
	if err != nil {
		t.Fatal(err)
	}
	_, _, evictions, used, n := cache.Stats()
	if evictions != 0 || n != 2 || used != int64(r.MemoryFootprint()) {
		t.Fatalf("with one build in flight: evictions %d entries %d used %d, want the only finished runner kept",
			evictions, n, used)
	}
	if again, _ := cache.Get("FMXM", mxm, dev, asm.O2); again != r {
		t.Fatal("the finished runner was rebuilt")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, _, evictions, _, n := cache.Stats(); evictions != 1 || n != 1 {
		t.Fatalf("after both builds: evictions %d entries %d, want 1 and 1", evictions, n)
	}
}
