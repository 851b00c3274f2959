// Package mem provides the addressable storage of the simulated GPU:
// global (device) memory with a bump allocator, per-block shared memory,
// and helpers shared with the per-thread register file. All storage is
// word-granular (32-bit), matching the ISA's access widths; 64-bit
// accesses use aligned word pairs.
//
// Every access is bounds- and alignment-checked: a corrupted address that
// escapes the allocated region raises an AccessError, the architectural
// origin of most detected unrecoverable errors (DUEs) in the LDST
// micro-benchmark (§V-B).
package mem

import (
	"errors"
	"fmt"
)

// AccessError reports an invalid memory access. The simulator converts it
// into a DUE, like the CUDA runtime converting an illegal address into an
// API error. A Global or Shared returns its one AccessError, overwritten
// by its next invalid access, so a faulting access allocates nothing.
type AccessError struct {
	Space string
	Addr  uint32
	Kind  string // "out of bounds", "unaligned", "null"
}

// Error implements the error interface.
func (e *AccessError) Error() string {
	return fmt.Sprintf("mem: %s access at %s address 0x%x", e.Kind, e.Space, e.Addr)
}

// nullGuard reserves the first bytes of global memory so that address 0
// (and small offsets from it) always fault, like a null page.
const nullGuard = 256

// Global is the device memory of one simulated GPU context.
type Global struct {
	words []uint32
	hwm   uint32      // allocation high-water mark, bytes
	fence Fence       // nil unless a Fence vets accesses (SetFence)
	err   AccessError // the latest invalid access
}

// Access classifies a global access for a Fence: loads read, stores
// write, and atomics do both.
type Access uint8

// Access kinds.
const (
	Read Access = 1 << iota
	Write
)

// A Fence vets the global accesses of kernel code (loads, stores,
// atomics; not the host-side Word/SetWord accessors). Allow is called
// after an access passed its bounds and alignment check, with the
// index of its first word, its word count, and its kind; a false
// return fails the access with ErrFenced before it touches memory. A
// fence may also just observe: the simulator records a launch's golden
// access sets through one.
type Fence interface {
	Allow(word, n uint32, a Access) bool
}

// ErrFenced is the error of an access the installed Fence refused.
var ErrFenced = errors.New("mem: global access fenced")

// SetFence installs f to vet every later kernel access (nil removes
// it). Without a fence the access path pays one nil test.
func (g *Global) SetFence(f Fence) { g.fence = f }

// NewGlobal creates a device memory of the given capacity in bytes
// (rounded down to a word multiple).
func NewGlobal(capacity int) *Global {
	if capacity < nullGuard*2 {
		capacity = nullGuard * 2
	}
	return &Global{
		words: make([]uint32, capacity/4),
		hwm:   nullGuard,
	}
}

// Alloc reserves size bytes (rounded up to 8-byte alignment) and returns
// the base address.
func (g *Global) Alloc(size int) (uint32, error) {
	if size <= 0 {
		return 0, fmt.Errorf("mem: invalid allocation size %d", size)
	}
	aligned := (size + 7) &^ 7
	base := g.hwm
	if int(base)+aligned > len(g.words)*4 {
		return 0, fmt.Errorf("mem: out of device memory (%d bytes requested, %d free)",
			aligned, len(g.words)*4-int(base))
	}
	g.hwm += uint32(aligned)
	return base, nil
}

// AllocatedBytes returns the bytes currently reserved (excluding the null
// guard); this is the storage surface the beam campaign exposes.
func (g *Global) AllocatedBytes() int { return int(g.hwm) - nullGuard }

func (g *Global) check(addr uint32, bytes uint32, a Access) error {
	if addr%bytes != 0 || addr < nullGuard || addr+bytes > g.hwm || addr+bytes < addr {
		return g.invalid(addr, bytes)
	}
	if g.fence != nil && !g.fence.Allow(addr/4, bytes/4, a) {
		return ErrFenced
	}
	return nil
}

// invalid records the invalid access of bytes at addr as the memory's
// AccessError and returns it.
func (g *Global) invalid(addr, bytes uint32) error {
	kind := "out of bounds"
	switch {
	case addr%bytes != 0:
		kind = "unaligned"
	case addr < nullGuard:
		kind = "null"
	}
	g.err = AccessError{Space: "global", Addr: addr, Kind: kind}
	return &g.err
}

// Load32 reads a 32-bit word.
func (g *Global) Load32(addr uint32) (uint32, error) {
	if err := g.check(addr, 4, Read); err != nil {
		return 0, err
	}
	return g.words[addr/4], nil
}

// Store32 writes a 32-bit word.
func (g *Global) Store32(addr uint32, v uint32) error {
	if err := g.check(addr, 4, Write); err != nil {
		return err
	}
	g.words[addr/4] = v
	return nil
}

// LoadRow32 reads len(dst) consecutive words starting at addr — the
// coalesced-warp fast path: one combined check, one copy. When the
// combined check cannot pass it falls back to word-by-word loads so the
// first failing word yields exactly the error a per-word caller sees.
// A fence vets an in-bounds row as one access.
func (g *Global) LoadRow32(addr uint32, dst []uint32) error {
	end := addr + uint32(len(dst))*4
	if addr%4 == 0 && addr >= nullGuard && end >= addr && end <= g.hwm {
		if g.fence != nil && !g.fence.Allow(addr/4, uint32(len(dst)), Read) {
			return ErrFenced
		}
		copy(dst, g.words[addr/4:end/4])
		return nil
	}
	for i := range dst {
		v, err := g.Load32(addr + uint32(4*i))
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// StoreRow32 writes len(src) consecutive words starting at addr; the
// store analogue of LoadRow32. The fallback preserves the partial-write
// semantics of a per-word loop that faults midway.
func (g *Global) StoreRow32(addr uint32, src []uint32) error {
	end := addr + uint32(len(src))*4
	if addr%4 == 0 && addr >= nullGuard && end >= addr && end <= g.hwm {
		if g.fence != nil && !g.fence.Allow(addr/4, uint32(len(src)), Write) {
			return ErrFenced
		}
		copy(g.words[addr/4:end/4], src)
		return nil
	}
	for i, v := range src {
		if err := g.Store32(addr+uint32(4*i), v); err != nil {
			return err
		}
	}
	return nil
}

// Load64 reads an aligned 64-bit value as (lo, hi) words.
func (g *Global) Load64(addr uint32) (lo, hi uint32, err error) {
	if err := g.check(addr, 8, Read); err != nil {
		return 0, 0, err
	}
	return g.words[addr/4], g.words[addr/4+1], nil
}

// Store64 writes an aligned 64-bit value given as (lo, hi) words.
func (g *Global) Store64(addr uint32, lo, hi uint32) error {
	if err := g.check(addr, 8, Write); err != nil {
		return err
	}
	g.words[addr/4] = lo
	g.words[addr/4+1] = hi
	return nil
}

// AtomicAdd32 performs an integer atomic add and returns the old value.
func (g *Global) AtomicAdd32(addr uint32, v uint32) (uint32, error) {
	if err := g.check(addr, 4, Read|Write); err != nil {
		return 0, err
	}
	old := g.words[addr/4]
	g.words[addr/4] = old + v
	return old, nil
}

// FlipBit flips one bit of allocated storage. The bit index ranges over
// AllocatedBytes()*8 and is relative to the first allocated byte.
func (g *Global) FlipBit(bit uint64) {
	total := uint64(g.AllocatedBytes()) * 8
	if total == 0 {
		return
	}
	bit %= total
	byteAddr := uint64(nullGuard) + bit/8
	g.words[byteAddr/4] ^= 1 << ((byteAddr%4)*8 + bit%8)
}

// Word returns the raw word at the given byte address without checks,
// for golden-output capture by host-side code.
func (g *Global) Word(addr uint32) uint32 { return g.words[addr/4] }

// SetWord writes the raw word at the given byte address without checks,
// for host-side initialization.
func (g *Global) SetWord(addr uint32, v uint32) { g.words[addr/4] = v }

// ReadWords copies n words starting at the given byte address, for
// host-side output comparison.
func (g *Global) ReadWords(addr uint32, n int) []uint32 {
	out := make([]uint32, n)
	copy(out, g.words[addr/4:addr/4+uint32(n)])
	return out
}

// Shared is the per-block shared memory (scratchpad).
type Shared struct {
	words []uint32
	size  uint32      // bytes
	err   AccessError // the latest invalid access
}

// SharedWords returns the number of 32-bit words backing a shared-memory
// region of the given size in bytes.
func SharedWords(size int) int { return (size + 3) / 4 }

// SharedOn returns a shared-memory region of the given size in bytes
// stored in words, which must hold exactly SharedWords(size) words. The
// region starts with whatever words holds; callers that recycle storage
// hand in zeroed words.
func SharedOn(words []uint32, size int) Shared {
	return Shared{words: words, size: uint32(size), err: AccessError{Space: "shared"}}
}

// Size returns the region size in bytes.
func (s *Shared) Size() int { return int(s.size) }

// check records an invalid access of bytes at addr as the region's
// AccessError, whose Space SharedOn set, and returns it. It writes only
// the kind and the address in place: building the whole error, in line
// or out of line, would push the accessors, on every LDS and STS, past
// the Go inliner's budget.
func (s *Shared) check(addr uint32, bytes uint32) error {
	switch {
	case addr%bytes != 0:
		s.err.Kind = "unaligned"
	case addr+bytes > s.size || addr+bytes < addr:
		s.err.Kind = "out of bounds"
	default:
		return nil
	}
	s.err.Addr = addr
	return &s.err
}

// Load32 reads a 32-bit word of shared memory.
func (s *Shared) Load32(addr uint32) (uint32, error) {
	if err := s.check(addr, 4); err != nil {
		return 0, err
	}
	return s.words[addr/4], nil
}

// Store32 writes a 32-bit word of shared memory.
func (s *Shared) Store32(addr uint32, v uint32) error {
	if err := s.check(addr, 4); err != nil {
		return err
	}
	s.words[addr/4] = v
	return nil
}

// Load64 reads an aligned 64-bit value as (lo, hi) words.
func (s *Shared) Load64(addr uint32) (lo, hi uint32, err error) {
	if err := s.check(addr, 8); err != nil {
		return 0, 0, err
	}
	return s.words[addr/4], s.words[addr/4+1], nil
}

// Store64 writes an aligned 64-bit value given as (lo, hi) words.
func (s *Shared) Store64(addr uint32, lo, hi uint32) error {
	if err := s.check(addr, 8); err != nil {
		return err
	}
	s.words[addr/4] = lo
	s.words[addr/4+1] = hi
	return nil
}

// FlipBit flips one bit of the region.
func (s *Shared) FlipBit(bit uint64) {
	if s.size == 0 {
		return
	}
	bit %= uint64(s.size) * 8
	s.words[bit/32] ^= 1 << (bit % 32)
}

// SnapshotWords returns a frozen copy of the region's words, the
// shared-memory half of a sub-launch checkpoint image.
func (s *Shared) SnapshotWords() []uint32 {
	return append([]uint32(nil), s.words...)
}

// RestoreWords rewinds the region to a SnapshotWords copy taken from a
// region of the same size.
func (s *Shared) RestoreWords(words []uint32) {
	copy(s.words, words)
}

// EqualWords reports whether the region is bit-identical to a
// SnapshotWords copy.
func (s *Shared) EqualWords(words []uint32) bool {
	if len(s.words) != len(words) {
		return false
	}
	for i := range s.words {
		if s.words[i] != words[i] {
			return false
		}
	}
	return true
}
