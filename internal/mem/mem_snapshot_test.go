package mem

import "testing"

func buildTestGlobal(t *testing.T) (*Global, uint32) {
	t.Helper()
	g := NewGlobal(1 << 16)
	base, err := g.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		g.SetWord(base+uint32(i*4), uint32(i)*0x9e3779b9)
	}
	return g, base
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	g, base := buildTestGlobal(t)
	snap := g.Snapshot()
	if !g.EqualSnapshot(snap) {
		t.Fatal("global does not equal its own snapshot")
	}

	// Corrupt state, then restore.
	g.FlipBit(12345)
	if err := g.Store32(base+40, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if g.EqualSnapshot(snap) {
		t.Fatal("corrupted global still equals snapshot")
	}
	g.Restore(snap)
	if !g.EqualSnapshot(snap) {
		t.Fatal("restore did not rewind the corruption")
	}
	for i := 0; i < 1024; i++ {
		if got := g.Word(base + uint32(i*4)); got != uint32(i)*0x9e3779b9 {
			t.Fatalf("word %d = %#x after restore", i, got)
		}
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	g, base := buildTestGlobal(t)
	snap := g.Snapshot()
	want := g.Word(base)
	g.SetWord(base, ^want)
	g2 := NewGlobal(g.CapacityBytes())
	g2.Restore(snap)
	if got := g2.Word(base); got != want {
		t.Fatalf("snapshot changed with its source: got %#x want %#x", got, want)
	}
}

func TestRestoreRewindsAllocator(t *testing.T) {
	g, _ := buildTestGlobal(t)
	snap := g.Snapshot()
	allocated := g.AllocatedBytes()
	if _, err := g.Alloc(512); err != nil {
		t.Fatal(err)
	}
	g.Restore(snap)
	if g.AllocatedBytes() != allocated {
		t.Fatalf("restore left %d allocated bytes, want %d", g.AllocatedBytes(), allocated)
	}
	// The invariant words-above-hwm-are-zero must survive a shrinking
	// restore, or a later Alloc would hand out dirty memory.
	base, err := g.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if got := g.Word(base + uint32(i*4)); got != 0 {
			t.Fatalf("fresh allocation word %d = %#x, want 0", i, got)
		}
	}
}

func TestEqualSnapshotFindsSingleBitDiff(t *testing.T) {
	g, _ := buildTestGlobal(t)
	snap := g.Snapshot()
	total := uint64(g.AllocatedBytes()) * 8
	// Probe bits across the region, including the unrolled-loop tail.
	for _, bit := range []uint64{0, 1, 31, 32, 255, 256*8 + 3, total - 1} {
		g.FlipBit(bit)
		if g.EqualSnapshot(snap) {
			t.Fatalf("EqualSnapshot missed flipped bit %d", bit)
		}
		g.FlipBit(bit)
		if !g.EqualSnapshot(snap) {
			t.Fatalf("double flip of bit %d is not the identity", bit)
		}
	}
}
