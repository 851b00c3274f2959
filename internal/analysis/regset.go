package analysis

import (
	"math/bits"

	"gpurel/internal/isa"
)

// RegSet is a dense bitset over the 256 general-purpose register names.
// RZ (255) is representable but never added: it reads as zero and
// ignores writes, so it carries no dataflow.
type RegSet [4]uint64

// Add inserts one register.
func (s *RegSet) Add(r isa.Reg) {
	if r == isa.RZ {
		return
	}
	s[r>>6] |= 1 << (r & 63)
}

// AddSpan inserts the n consecutive registers starting at base.
func (s *RegSet) AddSpan(base isa.Reg, n int) {
	for i := 0; i < n; i++ {
		s.Add(base + isa.Reg(i))
	}
}

// Remove deletes one register.
func (s *RegSet) Remove(r isa.Reg) {
	s[r>>6] &^= 1 << (r & 63)
}

// Has reports membership.
func (s *RegSet) Has(r isa.Reg) bool {
	return s[r>>6]&(1<<(r&63)) != 0
}

// Union merges o into s, reporting whether s changed.
func (s *RegSet) Union(o *RegSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | o[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Subtract removes o's members from s.
func (s *RegSet) Subtract(o *RegSet) {
	for i := range s {
		s[i] &^= o[i]
	}
}

// Count returns the number of members — the register pressure when the
// set is a liveness frontier.
func (s *RegSet) Count() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) +
		bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

// PredSet is a bitset over the 8 predicate register names. PT (7) is
// never added, for the same reason RZ is not.
type PredSet uint8

// Add inserts one predicate register.
func (s *PredSet) Add(p isa.PredReg) {
	if p == isa.PT {
		return
	}
	*s |= 1 << p
}

// Remove deletes one predicate register.
func (s *PredSet) Remove(p isa.PredReg) { *s &^= 1 << p }

// Has reports membership.
func (s PredSet) Has(p isa.PredReg) bool { return s&(1<<p) != 0 }

// Union merges o into s, reporting whether s changed.
func (s *PredSet) Union(o PredSet) bool {
	n := *s | o
	changed := n != *s
	*s = n
	return changed
}
