package analysis

import (
	"testing"

	"gpurel/internal/isa"
)

// provenTripProg: a loop whose counter is masked into [0,7] and compared
// against 1<<26 — the range lattice proves flips in bits 0..25 of the
// counter cannot cross the threshold, so only the top bits carry hang
// exposure.
func provenTripProg() *isa.Program {
	return prog("proventrip",
		movi(rr(1)),        // 0: address (const 0, window-proven)
		ldgT(rr(2), rr(1)), // 1: loop input (outside the loop: memory-free body)
		lopT(isa.LopAND, rr(3), rr(2), isa.Imm(7)), // 2: loop: counter in [0,7]
		isetpImm(pp(1), isa.CmpLT, rr(3), 1<<26),   // 3: trip-count compare
		braIf(pp(1), false, 2),                     // 4: backedge
		stg(rr(1), rr(3)),                          // 5
		exit(),                                     // 6
	)
}

func TestDUEModeProvenTripCount(t *testing.T) {
	r := Analyze(provenTripProg())
	ctr := &r.DUEModes()[2]
	for b := 0; b < 26; b++ {
		if got := ctr.Ch[ModeHang][b]; got != 0 {
			t.Errorf("counter bit %d: hang = %g, want 0 (range-proven flip-immune)", b, got)
		}
	}
	for b := 26; b < 32; b++ {
		if got := ctr.Ch[ModeHang][b]; got <= 0 {
			t.Errorf("counter bit %d: hang = %g, want > 0 (flip can cross the threshold)", b, got)
		}
	}
	// The trip-count predicate itself is pure hang exposure: its whole
	// DUE mass routes through the backedge guard.
	pv := &r.DUEModes()[3]
	if pv.Width != 1 {
		t.Fatalf("predicate width = %d, want 1", pv.Width)
	}
	due := r.ACEVec[3].DUE[0]
	if due <= 0 || pv.Ch[ModeHang][0] != due {
		t.Errorf("predicate hang = %g, want the full DUE mass %g", pv.Ch[ModeHang][0], due)
	}
	for _, m := range []DUEModeK{ModeIllegalAddress, ModeSyncError, ModeUnattributed} {
		if got := pv.Ch[m][0]; got != 0 {
			t.Errorf("predicate %s = %g, want 0", m, got)
		}
	}
	// The compare is against a constant, so the loop is statically
	// bounded and must not be flagged unbounded.
	for _, f := range r.Findings() {
		if f.Kind == KindUnboundedLoopExposure {
			t.Errorf("bounded loop flagged: %s", f.Msg)
		}
	}
}

// TestDUEModeBackedgeMemoryConversion pins the memory-body backedge
// split: a trip-count guard whose loop body touches memory routes most
// of its DUE to illegal-address (overrun iterations die on an
// out-of-bounds access), keeping only BackedgeMemHangFrac as hang.
func TestDUEModeBackedgeMemoryConversion(t *testing.T) {
	r := Analyze(prog("membody",
		movi(rr(1)),        // 0: address
		ldgT(rr(2), rr(1)), // 1: loop body: memory access
		lopT(isa.LopAND, rr(3), rr(2), isa.Imm(7)), // 2
		isetpImm(pp(1), isa.CmpLT, rr(3), 1<<26),   // 3
		braIf(pp(1), false, 1),                     // 4: backedge over the load
		exit(),                                     // 5
	))
	pv := &r.DUEModes()[3]
	due := r.ACEVec[3].DUE[0]
	const tol = 1e-12
	if due <= 0 {
		t.Fatal("trip-count predicate carries no DUE mass")
	}
	if got, want := pv.Ch[ModeHang][0], BackedgeMemHangFrac*due; abs(got-want) > tol {
		t.Errorf("memory-body backedge hang = %g, want %g", got, want)
	}
	if got, want := pv.Ch[ModeIllegalAddress][0], (1-BackedgeMemHangFrac)*due; abs(got-want) > tol {
		t.Errorf("memory-body backedge illegal-address = %g, want %g", got, want)
	}
}

func TestDUEModeUnboundedLoopFinding(t *testing.T) {
	r := Analyze(prog("unbounded",
		movi(rr(1)),                // 0: address
		ldgT(rr(2), rr(1)),         // 1: loop body: bound (unknown)
		ldgT(rr(3), rr(1)),         // 2: counter (unknown)
		isetp(pp(1), rr(3), rr(2)), // 3: neither side bounded
		braIf(pp(1), false, 1),     // 4: backedge
		exit(),                     // 5
	))
	var hit bool
	for _, f := range r.Findings() {
		if f.Kind == KindUnboundedLoopExposure {
			hit = true
			if f.Instr != 4 {
				t.Errorf("finding anchored at %d, want the backedge at 4", f.Instr)
			}
		}
	}
	if !hit {
		t.Error("statically unbounded loop not flagged unbounded-loop-exposure")
	}
}

func TestDUEModeAddressWindowProof(t *testing.T) {
	r := Analyze(prog("addrwindow",
		movi(rr(1)),               // 0: proven-window address (const 0)
		ldgT(rr(2), rr(1)),        // 1
		iadd(rr(4), rr(2), rr(2)), // 2: unproven address value
		ldgT(rr(5), rr(4)),        // 3
		stg(rr(1), rr(5)),         // 4
		exit(),                    // 5
	))
	proven, unproven := &r.DUEModes()[0], &r.DUEModes()[2]
	for b := 0; b < AddrPageBits; b++ {
		if got := proven.Ch[ModeIllegalAddress][b]; got != 0 {
			t.Errorf("proven address bit %d: illegal-address = %g, want 0 (in-window containment)", b, got)
		}
		if got := unproven.Ch[ModeIllegalAddress][b]; got <= 0 {
			t.Errorf("unproven address bit %d: illegal-address = %g, want > 0", b, got)
		}
	}
	for b := AddrPageBits; b < 32; b++ {
		if got := proven.Ch[ModeIllegalAddress][b]; got <= 0 {
			t.Errorf("address high bit %d: illegal-address = %g, want > 0 (high bits always escape)", b, got)
		}
	}
	// Lint: only the unproven chain is unguarded.
	var at []int
	for _, f := range r.Findings() {
		if f.Kind == KindUnguardedAddressArith {
			at = append(at, f.Instr)
		}
	}
	if len(at) != 1 || at[0] != 2 {
		t.Errorf("unguarded-address-arith at %v, want exactly [2]", at)
	}
}

func TestDUEModeSyncDivergence(t *testing.T) {
	r := Analyze(prog("diamond",
		movi(rr(0)),                 // 0: value
		movi(rr(1)),                 // 1: address
		isetp(pp(0), rr(0), isa.RZ), // 2
		ssy(8),                      // 3
		braIf(pp(0), true, 7),       // 4: divergent branch in SSY region
		iadd(rr(2), rr(0), rr(0)),   // 5
		bra(8),                      // 6
		imul(rr(2), rr(0), rr(0)),   // 7
		stg(rr(1), rr(2)),           // 8: reconvergence
		exit(),                      // 9
	))
	pv := &r.DUEModes()[2]
	due := r.ACEVec[2].DUE[0]
	if due <= 0 || pv.Ch[ModeSyncError][0] != due {
		t.Errorf("divergent-branch predicate sync-error = %g, want the full DUE mass %g",
			pv.Ch[ModeSyncError][0], due)
	}
	if got := pv.Ch[ModeHang][0]; got != 0 {
		t.Errorf("divergent-branch predicate hang = %g, want 0", got)
	}
}

func TestDUEModeGuardedBarrier(t *testing.T) {
	r := Analyze(prog("guardedbar",
		movi(rr(1)),                          // 0: address
		ldgT(rr(2), rr(1)),                   // 1
		isetp(pp(1), rr(2), isa.RZ),          // 2: barrier participation guard
		guard(raw(isa.OpBAR, isa.RZ), pp(1)), // 3
		stg(rr(1), rr(2)),                    // 4
		exit(),                               // 5
	))
	pv := &r.DUEModes()[2]
	due := r.ACEVec[2].DUE[0]
	if due <= 0 || pv.Ch[ModeSyncError][0] != due {
		t.Errorf("BAR-guard predicate sync-error = %g, want the full DUE mass %g",
			pv.Ch[ModeSyncError][0], due)
	}
	var hit bool
	for _, f := range r.Findings() {
		if f.Kind == KindSyncFragileRegion && f.Instr == 2 {
			hit = true
		}
	}
	if !hit {
		t.Error("predicate gating BAR not flagged sync-fragile-region")
	}
}

func TestDUEModeFullyMaskedSite(t *testing.T) {
	r := Analyze(prog("masked",
		movi(rr(1)),        // 0: address
		ldgT(rr(2), rr(1)), // 1: every bit provably masked
		lopT(isa.LopAND, rr(3), rr(2), isa.Imm(0)), // 2: AND 0 kills the value
		stg(rr(1), rr(3)),                          // 3
		exit(),                                     // 4
	))
	v := &r.DUEModes()[1]
	for m := DUEModeK(0); m < ModeCount; m++ {
		for b := 0; b < 64; b++ {
			if got := v.Ch[m][b]; got != 0 {
				t.Errorf("masked site bit %d: %s = %g, want 0", b, m, got)
			}
		}
	}
}

// TestDUEModePartition asserts the core invariant: per site per bit, the
// four mode channels partition the authoritative DUE probability
// exactly, and the aggregate DUEModeEstimate mass equals the scalar
// estimate's DUE for identical weights and filter.
func TestDUEModePartition(t *testing.T) {
	progs := []*isa.Program{
		provenTripProg(),
		prog("diamondloop",
			movi(rr(1)),        // 0: address
			ldgT(rr(2), rr(1)), // 1
			isetp(pp(0), rr(2), isa.RZ),
			ssy(7),
			braIf(pp(0), true, 6),
			iadd(rr(3), rr(2), rr(2)),
			stg(rr(1), rr(3)),          // 6+7 merged below
			isetp(pp(1), rr(3), rr(2)), // unbounded trip
			braIf(pp(1), false, 1),
			exit(),
		),
	}
	const tol = 1e-9
	for _, p := range progs {
		r := Analyze(p)
		for i := range p.Instrs {
			v, a := &r.DUEModes()[i], &r.ACEVec[i]
			if v.Width != a.Width {
				t.Fatalf("%s[%d]: mode width %d != ACE width %d", p.Name, i, v.Width, a.Width)
			}
			for b := 0; b < v.Width; b++ {
				var sum float64
				for m := DUEModeK(0); m < ModeCount; m++ {
					sum += v.Ch[m][b]
				}
				if d := sum - a.DUE[b]; d > tol || d < -tol {
					t.Errorf("%s[%d] bit %d: mode channels sum to %g, DUE = %g", p.Name, i, b, sum, a.DUE[b])
				}
			}
		}
		est := r.Estimate(nil, nil)
		mest := r.DUEModeEstimate(nil, nil)
		if d := mest.DUEMass - est.DUE; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: DUEModeEstimate mass %g != Estimate DUE %g", p.Name, mest.DUEMass, est.DUE)
		}
		if mest.Sites != est.Sites {
			t.Errorf("%s: mode estimate over %d sites, scalar over %d", p.Name, mest.Sites, est.Sites)
		}
		var shares float64
		for m := DUEModeK(0); m < ModeCount; m++ {
			shares += mest.Share(m)
		}
		if mest.DUEMass > 0 && (shares < 1-1e-9 || shares > 1+1e-9) {
			t.Errorf("%s: mode shares sum to %g, want 1", p.Name, shares)
		}
	}
}
