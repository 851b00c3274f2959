package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAllocAndAccess(t *testing.T) {
	g := NewGlobal(1 << 16)
	a, err := g.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if a < nullGuard {
		t.Fatalf("allocation landed in the null guard: 0x%x", a)
	}
	if err := g.Store32(a, 0xcafebabe); err != nil {
		t.Fatal(err)
	}
	v, err := g.Load32(a)
	if err != nil || v != 0xcafebabe {
		t.Fatalf("load = 0x%x, %v", v, err)
	}
}

func TestAllocAlignment(t *testing.T) {
	g := NewGlobal(1 << 16)
	a1, _ := g.Alloc(5)
	a2, _ := g.Alloc(4)
	if a1%8 != 0 || a2%8 != 0 {
		t.Fatalf("allocations not 8-byte aligned: 0x%x 0x%x", a1, a2)
	}
	if a2-a1 != 8 {
		t.Fatalf("5-byte alloc should occupy 8 bytes, got %d", a2-a1)
	}
}

func TestNullAndOOBFault(t *testing.T) {
	g := NewGlobal(1 << 16)
	a, _ := g.Alloc(16)
	var ae *AccessError

	if _, err := g.Load32(0); !errors.As(err, &ae) || ae.Kind != "null" {
		t.Errorf("null load: %v", err)
	}
	if _, err := g.Load32(a + 1<<20); !errors.As(err, &ae) || ae.Kind != "out of bounds" {
		t.Errorf("oob load: %v", err)
	}
	if err := g.Store32(a+2, 1); !errors.As(err, &ae) || ae.Kind != "unaligned" {
		t.Errorf("unaligned store: %v", err)
	}
	if _, _, err := g.Load64(a + 4); !errors.As(err, &ae) || ae.Kind != "unaligned" {
		t.Errorf("unaligned load64 (8-byte alignment required): %v", err)
	}
}

func TestAccessJustPastHWMFaults(t *testing.T) {
	g := NewGlobal(1 << 16)
	a, _ := g.Alloc(16)
	if _, err := g.Load32(a + 12); err != nil {
		t.Fatalf("last word should be readable: %v", err)
	}
	if _, err := g.Load32(a + 16); err == nil {
		t.Fatal("first word past the allocation must fault")
	}
}

func TestLoad64Store64RoundTrip(t *testing.T) {
	g := NewGlobal(1 << 16)
	a, _ := g.Alloc(32)
	if err := g.Store64(a+8, 0x11111111, 0x22222222); err != nil {
		t.Fatal(err)
	}
	lo, hi, err := g.Load64(a + 8)
	if err != nil || lo != 0x11111111 || hi != 0x22222222 {
		t.Fatalf("load64 = %x,%x,%v", lo, hi, err)
	}
}

func TestAtomicAdd(t *testing.T) {
	g := NewGlobal(1 << 16)
	a, _ := g.Alloc(8)
	g.SetWord(a, 5)
	old, err := g.AtomicAdd32(a, 3)
	if err != nil || old != 5 {
		t.Fatalf("atomic add old = %d, %v", old, err)
	}
	if v, _ := g.Load32(a); v != 8 {
		t.Fatalf("after atomic add: %d", v)
	}
}

func TestFlipBitStaysInAllocation(t *testing.T) {
	g := NewGlobal(1 << 16)
	a, _ := g.Alloc(8)
	before := g.ReadWords(a, 2)
	g.FlipBit(0)
	after := g.ReadWords(a, 2)
	diff := (before[0] ^ after[0]) | (before[1] ^ after[1])
	if popcount(diff) != 1 {
		t.Fatalf("FlipBit must flip exactly one allocated bit, diff=%x", diff)
	}
	// Bit index far beyond the allocation wraps instead of escaping.
	g.FlipBit(1 << 40)
	if g.AllocatedBytes() != 8 {
		t.Fatal("allocation bookkeeping corrupted")
	}
}

func TestFlipBitRoundTrips(t *testing.T) {
	f := func(bit uint16) bool {
		g := NewGlobal(1 << 16)
		a, _ := g.Alloc(256)
		g.FlipBit(uint64(bit) % 2048)
		g.FlipBit(uint64(bit) % 2048)
		for i, w := range g.ReadWords(a, 64) {
			if w != 0 {
				t.Logf("word %d nonzero after double flip", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfMemory(t *testing.T) {
	g := NewGlobal(1024)
	if _, err := g.Alloc(1 << 20); err == nil {
		t.Fatal("huge allocation should fail")
	}
	if _, err := g.Alloc(0); err == nil {
		t.Fatal("zero-size allocation should fail")
	}
}

func TestSharedMemory(t *testing.T) {
	s := SharedOn(make([]uint32, SharedWords(1024)), 1024)
	if s.Size() != 1024 {
		t.Fatalf("size = %d", s.Size())
	}
	if err := s.Store32(100, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Load32(100); v != 42 {
		t.Fatalf("load = %d", v)
	}
	if _, err := s.Load32(1024); err == nil {
		t.Fatal("oob shared load must fault")
	}
	if err := s.Store32(2, 1); err == nil {
		t.Fatal("unaligned shared store must fault")
	}
	if err := s.Store64(8, 1, 2); err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := s.Load64(8)
	if lo != 1 || hi != 2 {
		t.Fatal("shared 64-bit round trip failed")
	}
}

// TestSharedFaultsDoNotAllocate pins that an out-of-bounds or unaligned
// shared access reports its kind through the region's one AccessError,
// without allocating.
func TestSharedFaultsDoNotAllocate(t *testing.T) {
	s := SharedOn(make([]uint32, SharedWords(64)), 64)
	var ae *AccessError
	if _, err := s.Load32(64); !errors.As(err, &ae) || ae.Kind != "out of bounds" || ae.Space != "shared" {
		t.Errorf("oob shared load: %v", err)
	}
	if err := s.Store64(4, 1, 2); !errors.As(err, &ae) || ae.Kind != "unaligned" || ae.Addr != 4 {
		t.Errorf("unaligned shared store64: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Load32(64); err == nil {
			t.Fatal("oob shared load must fault")
		}
		if err := s.Store32(2, 1); err == nil {
			t.Fatal("unaligned shared store must fault")
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per faulting shared access pair, want 0", allocs)
	}
}

func TestSharedFlipBit(t *testing.T) {
	s := SharedOn(make([]uint32, SharedWords(64)), 64)
	s.FlipBit(37)
	v, _ := s.Load32(4)
	if v != 1<<5 {
		t.Fatalf("bit 37 should be word 1 bit 5, got %x", v)
	}
	// Zero-size region: no-op, no panic.
	empty := SharedOn(nil, 0)
	empty.FlipBit(3)
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// fenceLog records every access a Fence is asked about and refuses
// those touching word deny.
type fenceLog struct {
	deny  uint32
	calls [][3]uint32 // word, n, access
}

func (f *fenceLog) Allow(word, n uint32, a Access) bool {
	f.calls = append(f.calls, [3]uint32{word, n, uint32(a)})
	return word > f.deny || word+n <= f.deny
}

// TestFenceVetsKernelAccesses pins the fence contract: every kind of
// kernel access is vetted once, with its kind, after its bounds check
// (an out-of-bounds access still reports an AccessError and never
// reaches the fence), an in-bounds row is vetted as one access, and a
// refused access fails with ErrFenced before it touches memory.
func TestFenceVetsKernelAccesses(t *testing.T) {
	g := NewGlobal(1 << 16)
	a, _ := g.Alloc(64)
	w := a / 4
	f := &fenceLog{deny: w + 8}
	g.SetFence(f)
	g.Load32(a)
	g.Store32(a+4, 1)
	g.Load64(a + 8)
	g.Store64(a+16, 1, 2)
	g.AtomicAdd32(a+24, 1)
	g.LoadRow32(a, make([]uint32, 4))
	g.StoreRow32(a+16, make([]uint32, 2))
	want := [][3]uint32{
		{w, 1, uint32(Read)}, {w + 1, 1, uint32(Write)}, {w + 2, 2, uint32(Read)},
		{w + 4, 2, uint32(Write)}, {w + 6, 1, uint32(Read | Write)},
		{w, 4, uint32(Read)}, {w + 4, 2, uint32(Write)},
	}
	if len(f.calls) != len(want) {
		t.Fatalf("fence saw %v, want %v", f.calls, want)
	}
	for i := range want {
		if f.calls[i] != want[i] {
			t.Errorf("access %d: fence saw %v, want %v", i, f.calls[i], want[i])
		}
	}
	var ae *AccessError
	if _, err := g.Load32(a + 64); !errors.As(err, &ae) || len(f.calls) != len(want) {
		t.Errorf("out-of-bounds load: %v after %d fence calls; want an AccessError and no fence call", err, len(f.calls)-len(want))
	}
	if err := g.Store32(a+32, 7); !errors.Is(err, ErrFenced) || g.Word(a+32) != 0 {
		t.Errorf("fenced store: %v, word now %d; want ErrFenced and the word untouched", err, g.Word(a+32))
	}
	g.SetFence(nil)
	if err := g.Store32(a+32, 7); err != nil || g.Word(a+32) != 7 {
		t.Errorf("store after removing the fence: %v, word %d", err, g.Word(a+32))
	}
}
