// Snapshot support for checkpointed execution: a Snapshot is an
// immutable copy of the allocated region of a Global, cheap to restore
// and to compare against. Every golden checkpoint the simulator records
// (internal/sim LaunchImage, the launch boundary included) holds one as
// its global memory. A faulted trial (internal/sim Trial) restores the
// snapshot of the checkpoint it starts from, and diffs memory against
// the next launch boundary's snapshot (AppendDiff) to carry only the
// words a fault dirtied, and to detect architecturally masked faults
// without replaying the rest of the program.
package mem

// Snapshot is a frozen copy of the allocated region of a Global. It is
// safe for concurrent use once created.
type Snapshot struct {
	words []uint32 // copy of the allocated words (including the null guard)
	hwm   uint32   // allocation high-water mark at capture time, bytes
}

// CapacityBytes returns the total capacity of the Global in bytes.
func (g *Global) CapacityBytes() int { return len(g.words) * 4 }

// SizeBytes returns the snapshot's retained memory, the term a cache
// holding many runners' snapshots budgets against.
func (s *Snapshot) SizeBytes() int { return len(s.words) * 4 }

// Word returns the snapshot word at byte address addr. The address must
// lie below the snapshot's allocation high-water mark; like Global.Word
// it is a trusted accessor for diffing, not a bounds-checked load.
func (s *Snapshot) Word(addr uint32) uint32 { return s.words[addr/4] }

// AllocatedBytes returns the allocation high-water mark captured with
// the snapshot — the extent of the region Word may address.
func (s *Snapshot) AllocatedBytes() int { return int(s.hwm) }

// Snapshot captures the allocated region (null guard included, so word
// indices line up) and the allocator state.
func (g *Global) Snapshot() *Snapshot {
	n := int(g.hwm) / 4
	s := &Snapshot{
		words: make([]uint32, n),
		hwm:   g.hwm,
	}
	copy(s.words, g.words[:n])
	return s
}

// Restore rewinds the Global to the snapshot's state. The Global must
// have at least the snapshot's allocated capacity; words beyond the
// restored high-water mark are untouched (kernel stores are bounds-
// checked against hwm, so they are never dirtied by a simulation).
func (g *Global) Restore(s *Snapshot) {
	copy(g.words[:len(s.words)], s.words)
	if g.hwm > s.hwm {
		// Shrinking restore: re-zero the region the previous state had
		// allocated beyond the snapshot, keeping the invariant that
		// words above hwm are zero.
		for i := len(s.words); i < int(g.hwm)/4; i++ {
			g.words[i] = 0
		}
	}
	g.hwm = s.hwm
}

// EqualSnapshot reports whether the allocated region is bit-identical
// to the snapshot: the memory half of the sub-launch rejoin compare.
func (g *Global) EqualSnapshot(s *Snapshot) bool {
	if g.hwm != s.hwm {
		return false
	}
	w := g.words[:len(s.words)]
	// Compare eight words at a time; campaigns spend a measurable share
	// of their time in this diff, and the unrolled loop lets the
	// compiler keep the bounds checks out of the hot path.
	i := 0
	for ; i+8 <= len(w); i += 8 {
		a, b := w[i:i+8], s.words[i:i+8]
		if a[0] != b[0] || a[1] != b[1] || a[2] != b[2] || a[3] != b[3] ||
			a[4] != b[4] || a[5] != b[5] || a[6] != b[6] || a[7] != b[7] {
			return false
		}
	}
	for ; i < len(w); i++ {
		if w[i] != s.words[i] {
			return false
		}
	}
	return true
}

// AppendDiff appends to dst the index of every word of the snapshot's
// allocated region at which the Global differs from it, ascending, and
// returns the extended slice. The scan runs at EqualSnapshot's speed
// over equal stretches.
func (g *Global) AppendDiff(s *Snapshot, dst []uint32) []uint32 {
	w := g.words[:len(s.words)]
	i := 0
	for ; i+8 <= len(w); i += 8 {
		a, b := w[i:i+8], s.words[i:i+8]
		if a[0] != b[0] || a[1] != b[1] || a[2] != b[2] || a[3] != b[3] ||
			a[4] != b[4] || a[5] != b[5] || a[6] != b[6] || a[7] != b[7] {
			for k := range a {
				if a[k] != b[k] {
					dst = append(dst, uint32(i+k))
				}
			}
		}
	}
	for ; i < len(w); i++ {
		if w[i] != s.words[i] {
			dst = append(dst, uint32(i))
		}
	}
	return dst
}
