package analysis

import "gpurel/internal/isa"

// Static DUE-mode classification: the backward solver's mode channel
// set (backward.go) splits every site's per-bit DUE probability
// (ACEVector.DUE, the authoritative total from the ACE channel set)
// across the simulator's typed DUE mechanisms — how a flipped bit kills
// the kernel, not just whether it does.
//
// The mode set's terminal sinks route by mechanism: a flipped address
// bit that can leave the statically proven valid range is an
// illegal-address DUE (low bits whose page-window containment is proven
// contribute nothing); a flipped predicate feeding a loop backedge or an
// EXIT is a hang; one feeding BAR/SYNC/SSY — or a branch inside an SSY
// divergence region — is a sync error. Transitive edges take the same
// route as the ACE set's, so a mode's mass attenuates through dataflow
// precisely as its parent DUE mass does. Per bit the settle rule
// renormalizes the four channels to sum to the authoritative DUE[b];
// DUE mass whose every routed channel is provably zero falls into the
// Unattributed residual rather than being silently dropped, so the
// partition is exact at every iteration.

// DUEModeK indexes the static mode channels, in the display order of
// sim.DUEModes(). The analysis package deliberately does not import the
// simulator; faultinj bridges the two taxonomies when cross-validating.
type DUEModeK uint8

// Static DUE-mode channels.
const (
	ModeHang DUEModeK = iota
	ModeIllegalAddress
	ModeSyncError
	ModeUnattributed
	// ModeCount is the number of channels.
	ModeCount
)

// String names the channel with the simulator's DUEMode spelling.
func (m DUEModeK) String() string {
	switch m {
	case ModeHang:
		return "hang"
	case ModeIllegalAddress:
		return "illegal-address"
	case ModeSyncError:
		return "sync-error"
	}
	return "unattributed"
}

// DUEModeVec is the per-bit DUE-mode split of one definition: for every
// destination bit, Ch[m][b] is the share of ACEVector.DUE[b] attributed
// to mode m. The four channels sum to the site's DUE channel exactly.
type DUEModeVec struct {
	Width int
	Ch    [ModeCount][64]float64
}

// Mean averages one channel over the window.
func (v *DUEModeVec) Mean(m DUEModeK) float64 { return chMean(&v.Ch[m], v.Width, 0) }

// divRegions marks the instructions that lie strictly inside an SSY
// divergence region (after the SSY, before its reconvergence target) —
// the span where a corrupted branch predicate derails reconvergence
// instead of merely redirecting control flow.
func divRegions(p *isa.Program) []bool {
	in := make([]bool, len(p.Instrs))
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		if ins.Op != isa.OpSSY || ins.Target <= i || ins.Target > len(p.Instrs) {
			continue
		}
		for j := i + 1; j < ins.Target; j++ {
			in[j] = true
		}
	}
	return in
}

// backedgeBodyMem marks, per conditional backedge BRA, whether its loop
// body touches memory. A corrupted trip count in such a loop mostly
// dies as an illegal address, not a hang: the overrun iterations run
// the body with indices past the proven bound, and the out-of-bounds
// access kills the kernel long before the watchdog would (the dominant
// DUE conversion the injection campaigns observe). A memory-free body
// can only spin.
func backedgeBodyMem(p *isa.Program) []bool {
	mem := make([]bool, len(p.Instrs))
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		if ins.Op != isa.OpBRA || ins.Target > i || ins.Target < 0 {
			continue
		}
		for j := ins.Target; j <= i; j++ {
			if p.Instrs[j].Op.IsMemory() {
				mem[i] = true
				break
			}
		}
	}
	return mem
}

// DUEModeEstimate is a whole-program static DUE-mode distribution over
// a site population: the weighted-mean per-mode DUE mass, in the same
// aggregation scheme as Estimate. The four mode fields sum to DUEMass
// (which equals Estimate.DUE for the same weights and filter), and
// Shares normalizes them into the distribution the injection ledgers
// are cross-validated against.
type DUEModeEstimate struct {
	Name  string `json:"name"`
	Sites int    `json:"sites"`

	// Weight is the total site weight behind the means — the combining
	// weight when multi-launch estimates are merged (faultinj).
	Weight float64 `json:"weight"`

	// DUEMass is the weighted-mean total DUE probability of the
	// population — the denominator of the mode shares.
	DUEMass float64 `json:"due_mass"`

	Hang           float64 `json:"hang"`
	IllegalAddress float64 `json:"illegal_address"`
	SyncError      float64 `json:"sync_error"`
	Unattributed   float64 `json:"unattributed"`
}

// Share returns one mode's fraction of the population's DUE mass (0
// when the population carries no DUE mass at all).
func (e *DUEModeEstimate) Share(m DUEModeK) float64 {
	if e.DUEMass <= 0 {
		return 0
	}
	return e.Mass(m) / e.DUEMass
}

// Mass returns one mode's absolute weighted-mean DUE mass.
func (e *DUEModeEstimate) Mass(m DUEModeK) float64 { return *e.mass(m) }

// addMass accumulates w-weighted mode mass.
func (e *DUEModeEstimate) addMass(m DUEModeK, v float64) { *e.mass(m) += v }

// mass is the one mapping from a mode to its field.
func (e *DUEModeEstimate) mass(m DUEModeK) *float64 {
	switch m {
	case ModeHang:
		return &e.Hang
	case ModeIllegalAddress:
		return &e.IllegalAddress
	case ModeSyncError:
		return &e.SyncError
	}
	return &e.Unattributed
}

// DUEModeEstimate aggregates the mode vectors over the sites matching
// filter (nil: every GPR-writing opcode), weighted like Estimate.
func (r *Result) DUEModeEstimate(weights []float64, filter func(isa.Op) bool) *DUEModeEstimate {
	est := &DUEModeEstimate{Name: r.Prog.Name}
	var totalW float64
	for i := range r.Prog.Instrs {
		in := &r.Prog.Instrs[i]
		if filter == nil {
			if !in.Op.WritesGPR() {
				continue
			}
		} else if !filter(in.Op) {
			continue
		}
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		if w <= 0 {
			continue
		}
		est.Sites++
		totalW += w
		v := &r.DUEModeVec[i]
		for m := DUEModeK(0); m < ModeCount; m++ {
			est.addMass(m, w*v.Mean(m))
		}
	}
	if totalW > 0 {
		for m := DUEModeK(0); m < ModeCount; m++ {
			*est.mass(m) /= totalW
		}
	}
	est.Weight = totalW
	est.DUEMass = est.Hang + est.IllegalAddress + est.SyncError + est.Unattributed
	return est
}
