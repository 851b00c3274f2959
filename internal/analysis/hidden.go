package analysis

import "gpurel/internal/isa"

// Static DUE modeling for hidden resources (§VII follow-on). The ACE
// estimator in avf.go covers faults in architectural register dataflow —
// the population the injectors reach. The paper's headline negative
// result is that most beam DUEs originate elsewhere: the warp scheduler,
// the fetch/decode pipeline, and the MMU/LDST queue path. None of those
// structures appear in the IR, but the *pressure a kernel puts on them*
// does, and this file derives three static proxies for it:
//
//   - Fetch exposure: fetch-stream discontinuities per executed
//     instruction, from CFG shape weighted by block execution counts.
//     Short blocks and branch-dense loops keep the fetch/decode path and
//     branch redirect logic busy; straight-line code barely touches it.
//   - Divergence depth: the mean SSY-region nesting depth over executed
//     instructions. Deep SSY/SYNC nesting means more live reconvergence-
//     stack state per warp, the scheduler-side storage a strike corrupts.
//   - Load pressure: the mass of outstanding-load state, from the
//     def-use span lengths of LD-family opcodes. A load whose first use
//     is far from its issue point holds an LDST-queue/MSHR entry (and an
//     MMU translation in flight) for longer.
//
// The proxies modulate a per-resource exposure prior calibrated against
// the companion NSREC 2021 beam study's DUE attribution (scheduler >
// instruction pipeline > memory path >> host interface), and each
// resource carries a conditional DUE probability: management-state
// corruption mostly hangs or faults the kernel rather than silently
// corrupting data. The combined estimate is a static P(DUE | hidden
// strike) that internal/faultinj cross-validates against internal/beam's
// per-resource strike ledger, and that internal/fit feeds back into the
// Eq. 1-4 prediction as the DUE correction term the injectors cannot
// supply.
//
// Like the ACE model, this is a structural estimate, not a measurement:
// it sees the shape of the code, never the runtime occupancy of the
// hidden structures themselves. See DESIGN.md for what that does and
// does not allow it to claim.

// Per-resource exposure priors. The base shares mirror the relative
// per-warp-cycle strike budgets of the §VII-B breakdown (arbitrary
// units; only ratios matter), and the modulation gains set how strongly
// each static proxy can shift its resource's share.
const (
	hiddenBaseScheduler = 0.42
	hiddenBaseInstrPipe = 0.34
	hiddenBaseMemPath   = 0.22
	hiddenBaseHostIface = 0.02

	hiddenGainDivergence = 0.5 // scheduler share grows with SSY depth
	hiddenGainFetch      = 0.5 // instr-pipe share grows with fetch exposure
	hiddenGainLoad       = 1.5 // mem-path share grows with load pressure
)

// Conditional DUE probabilities per hidden resource: corrupted
// management state rarely produces a silently wrong answer — it hangs
// the warp, derails fetch, or faults a translation. Calibrated to the
// NSREC 2021 outcome attribution.
const (
	hiddenDUEScheduler = 0.80
	hiddenDUEInstrPipe = 0.75
	hiddenDUEMemPath   = 0.85
	hiddenDUEHostIface = 0.90
)

// NominalHiddenDUE is the suite-typical P(DUE | hidden strike) implied
// by the priors alone (all proxies at their neutral point).
const NominalHiddenDUE = hiddenBaseScheduler*hiddenDUEScheduler +
	hiddenBaseInstrPipe*hiddenDUEInstrPipe +
	hiddenBaseMemPath*hiddenDUEMemPath +
	hiddenBaseHostIface*hiddenDUEHostIface

// HiddenEstimate is the hidden-resource DUE model of one kernel (or,
// via CombineHidden, one multi-launch workload). The static path fills
// the three proxies from code structure; the measured path
// (WithResidency) replaces them with runtime occupancies from the
// simulator's residency telemetry and additionally yields an absolute
// exposure the fit layer can calibrate against.
type HiddenEstimate struct {
	Name string

	// The three proxies: structural on the static path, measured
	// occupancies on the WithResidency path.
	FetchExposure   float64 // fetch discontinuities per executed instruction
	DivergenceDepth float64 // mean SSY nesting depth over executed instructions
	LoadPressure    float64 // outstanding-load mass per executed instruction

	// Shares is the estimated distribution of hidden-resource strikes
	// over {scheduler, instr-pipe, mem-path, host-iface}; it sums to 1.
	SchedulerShare float64
	InstrPipeShare float64
	MemPathShare   float64
	HostIfaceShare float64

	// DUE is the combined P(DUE | hidden strike): the share-weighted
	// conditional DUE probability. This is the DUE AVF of the
	// hidden-resource population, the counterpart of Estimate.DUE for
	// the architectural one.
	DUE float64

	// Measured marks an estimate produced by WithResidency; Exposure is
	// then the modeled hidden strike surface per device cycle (model
	// a.u., normalized to the scheduler's per-warp-cycle sensitivity).
	// Static estimates leave both at their zero values: the static path
	// has no absolute scale, only the Phi-relative one.
	Measured bool
	Exposure float64
}

// DUEExposure is the DUE-weighted hidden exposure per device cycle of a
// measured estimate: the model's expected hidden DUE surface, the
// quantity fit.ApplyMeasuredDUE calibrates across workloads. Zero for
// static estimates.
func (h *HiddenEstimate) DUEExposure() float64 { return h.Exposure * h.DUE }

// hiddenShareWeight applies one proxy's modulation to its base share.
func hiddenShareWeight(base, gain, proxy float64) float64 {
	return base * (1 + gain*proxy)
}

// finishHidden derives shares and the combined DUE from the raw proxies.
func (h *HiddenEstimate) finishHidden() {
	ws := hiddenShareWeight(hiddenBaseScheduler, hiddenGainDivergence, h.DivergenceDepth)
	wi := hiddenShareWeight(hiddenBaseInstrPipe, hiddenGainFetch, h.FetchExposure)
	wm := hiddenShareWeight(hiddenBaseMemPath, hiddenGainLoad, h.LoadPressure)
	wh := hiddenBaseHostIface
	total := ws + wi + wm + wh
	h.SchedulerShare = ws / total
	h.InstrPipeShare = wi / total
	h.MemPathShare = wm / total
	h.HostIfaceShare = wh / total
	h.DUE = h.SchedulerShare*hiddenDUEScheduler +
		h.InstrPipeShare*hiddenDUEInstrPipe +
		h.MemPathShare*hiddenDUEMemPath +
		h.HostIfaceShare*hiddenDUEHostIface
}

// HiddenEstimate computes the hidden-resource DUE model over one
// analyzed program. weights gives per-instruction execution weights
// (nil: uniform static weighting); use OpWeights to weight by a dynamic
// profile, exactly as Estimate does for the ACE model.
func (r *Result) HiddenEstimate(weights []float64) *HiddenEstimate {
	h := &HiddenEstimate{Name: r.Prog.Name}
	n := len(r.Prog.Instrs)
	if n == 0 {
		h.finishHidden()
		return h
	}
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	var totalW float64
	for i := 0; i < n; i++ {
		if w(i) > 0 {
			totalW += w(i)
		}
	}
	if totalW <= 0 {
		h.finishHidden()
		return h
	}

	// Fetch exposure: every block entry is a fetch-line discontinuity,
	// and a block whose terminator redirects the stream (taken branch,
	// SYNC jump to the reconvergence point) costs a second one. A
	// block's execution count is its mean per-instruction weight.
	var fetch float64
	for _, b := range r.CFG.Blocks {
		var bw float64
		for i := b.Start; i < b.End; i++ {
			if w(i) > 0 {
				bw += w(i)
			}
		}
		execs := bw / float64(b.End-b.Start)
		cost := 1.0
		switch r.Prog.Instrs[b.Last()].Op {
		case isa.OpBRA, isa.OpSYNC:
			cost = 2.0
		}
		fetch += execs * cost
	}
	h.FetchExposure = fetch / totalW

	// Divergence depth: the number of enclosing SSY regions per
	// instruction, weighted by execution count. An SSY at s with
	// reconvergence target t covers the instructions strictly inside
	// (s, t): the region a warp may traverse divergent, holding a
	// reconvergence-stack entry the whole time.
	depth := make([]int, n)
	for s := 0; s < n; s++ {
		in := &r.Prog.Instrs[s]
		if in.Op != isa.OpSSY || in.Target <= s {
			continue
		}
		end := in.Target
		if end > n {
			end = n
		}
		for i := s + 1; i < end; i++ {
			depth[i]++
		}
	}
	var div float64
	for i := 0; i < n; i++ {
		if w(i) > 0 {
			div += w(i) * float64(depth[i])
		}
	}
	h.DivergenceDepth = div / totalW

	// Load pressure: each LD-family definition holds queue state from
	// issue until its furthest consumer; the def-use span, normalized by
	// program length, approximates that residency. A span that wraps
	// backward (loop-carried use) covers the remainder of the iteration
	// plus the prefix of the next.
	var load float64
	for i := 0; i < n; i++ {
		if !r.Prog.Instrs[i].Op.IsLoad() || w(i) <= 0 {
			continue
		}
		span := 0
		for _, e := range r.DefUse.Out[i] {
			d := e.Use - i
			if d <= 0 {
				d = n - i + e.Use
			}
			if d > span {
				span = d
			}
		}
		load += w(i) * float64(span) / float64(n)
	}
	h.LoadPressure = load / totalW

	h.finishHidden()
	return h
}

// CombineHidden merges per-launch hidden estimates into one workload
// estimate, weighting each launch by its share of the hidden strike
// surface (callers typically use active-warp-cycles, the quantity the
// per-warp hidden state scales with). Proxies, shares, and the DUE all
// combine as weighted means; a zero total weight yields the neutral
// prior.
func CombineHidden(name string, ests []*HiddenEstimate, weights []float64) *HiddenEstimate {
	h := &HiddenEstimate{Name: name}
	var totalW float64
	for i, e := range ests {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		if w <= 0 {
			continue
		}
		totalW += w
		h.FetchExposure += w * e.FetchExposure
		h.DivergenceDepth += w * e.DivergenceDepth
		h.LoadPressure += w * e.LoadPressure
	}
	if totalW > 0 {
		h.FetchExposure /= totalW
		h.DivergenceDepth /= totalW
		h.LoadPressure /= totalW
	}
	h.finishHidden()
	return h
}

// Measured-residency hidden model. The static path above guesses how
// full the hidden structures run from code shape; the measured path
// reads the occupancies straight from the simulator's residency
// telemetry (sim.Residency). Per-warp hidden state (scheduler slots,
// reconvergence stacks, per-warp i-buffer entries) scales with resident
// warps per SM-cycle; per-SM structures (dispatch logic, i-cache, MMU
// front end, host interface) are exposed whenever the SM is powered.
// The per-resource sensitivities below encode that split, normalized to
// the scheduler's per-warp term, and are calibrated against the NSREC
// 2021 beam attribution the exposure priors came from.
const (
	residWarpScheduler = 1.0
	residWarpInstrPipe = 0.8
	residWarpMemPath   = 0.5
	residWarpHostIface = 0.0

	residSMScheduler = 2.4
	residSMInstrPipe = 2.0
	residSMMemPath   = 1.6
	residSMHostIface = 1.0

	// Modulation gains for the measured proxies. They are deliberately
	// small: with the occupancies measured, the proxies only fine-tune
	// how busy each structure is per resident warp, they no longer carry
	// the whole estimate as on the static path.
	measGainDivergence = 0.15 // scheduler: live reconvergence entries per issue
	measGainFetch      = 0.15 // instr-pipe: fetch redirects per issue
	measGainLoad       = 0.15 // mem-path: saturated LDST-queue depth per warp
)

// MeasuredResidency carries the runtime hidden-structure occupancies
// measured by the simulator (see sim.Residency; kept as plain floats so
// analysis does not depend on the simulator package).
type MeasuredResidency struct {
	WarpsPerSMCycle  float64 // resident warps per active SM-cycle
	SMCyclesPerCycle float64 // active SMs per device cycle
	SchedUtil        float64 // issued warp-instructions per scheduler slot
	FetchRate        float64 // fetch redirects per issued warp-instruction
	DivDepth         float64 // live divergence entries per issued warp-instruction
	LoadDepth        float64 // outstanding loads per active warp-cycle
}

// WithResidency returns a copy of the estimate with the three static
// proxies replaced by their measured counterparts and the strike shares
// rebuilt from the measured occupancies. The static receiver is kept as
// the fallback: callers that lack telemetry keep using the structural
// estimate unchanged.
func (h *HiddenEstimate) WithResidency(m MeasuredResidency) *HiddenEstimate {
	out := *h
	out.Measured = true
	out.FetchExposure = m.FetchRate
	out.DivergenceDepth = m.DivDepth
	// Outstanding loads per warp are unbounded in principle; saturate so
	// the proxy stays a [0,1) occupancy like the other two.
	out.LoadPressure = m.LoadDepth / (1 + m.LoadDepth)

	w := m.WarpsPerSMCycle
	ws := (residWarpScheduler*w + residSMScheduler) * (1 + measGainDivergence*out.DivergenceDepth)
	wi := (residWarpInstrPipe*w + residSMInstrPipe) * (1 + measGainFetch*out.FetchExposure)
	wm := (residWarpMemPath*w + residSMMemPath) * (1 + measGainLoad*out.LoadPressure)
	wh := residWarpHostIface*w + residSMHostIface
	total := ws + wi + wm + wh
	out.SchedulerShare = ws / total
	out.InstrPipeShare = wi / total
	out.MemPathShare = wm / total
	out.HostIfaceShare = wh / total
	out.DUE = out.SchedulerShare*hiddenDUEScheduler +
		out.InstrPipeShare*hiddenDUEInstrPipe +
		out.MemPathShare*hiddenDUEMemPath +
		out.HostIfaceShare*hiddenDUEHostIface
	out.Exposure = total * m.SMCyclesPerCycle
	return &out
}
