// The two-level estimator (Hari et al., PAPERS.md): instead of
// re-simulating thousands of dynamically sampled faults, sample
// instruction-level fault outcomes a handful of times per *static site*
// and propagate them to a whole-application estimate with dynamic
// weights and the SDC pattern model. Level 1 is the expensive part —
// full checkpointed replays, exactly the engine the exhaustive
// campaigns use — but it runs once per static site, not once per
// dynamic sample. Level 2 is free: a site's measured outcome
// distribution and pattern mix stand in for every dynamic occurrence of
// that site, weighted by its share of the dynamic instruction stream.
//
// The estimate is unbiased for the same reason stratified sampling is:
// the exhaustive campaign draws trigger sites dynamically weighted, so
// its expected AVF is Σ_site w_site · P(outcome | site); the two-level
// estimate computes that sum directly with a per-site Monte Carlo
// estimate of P(outcome | site). What it gives up is within-site
// trigger resolution — all dynamic occurrences of a site share the
// sampled outcomes — which is exactly the approximation the pattern
// study validates (TestTwoLevelCrossVal, the patterns check.sh gate).
package faultinj

import (
	"fmt"
	"sort"

	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/par"
	"gpurel/internal/patterns"
	"gpurel/internal/sim"
	"gpurel/internal/stats"
)

// TwoLevelTolerance is the documented agreement band between the
// two-level SDC AVF and the exhaustive engine's: |Δ| ≤ 0.15 on every
// CrossValKernels workload. Looser than the static-estimator band would
// suggest at first glance, tighter in practice: both sides are Monte
// Carlo estimates, and the two-level side spends an order of magnitude
// fewer trials (TwoLevelConfig.TrialBudget vs TotalFaults), so the band
// must absorb both sampling noises plus the within-site approximation.
const TwoLevelTolerance = 0.15

// TwoLevelConfig sizes a two-level estimation.
type TwoLevelConfig struct {
	// Tool selects the injection-site semantics (which ops are
	// injectable). The default zero value is Sassifi; campaigns and the
	// cross-validation use NVBitFI, matching the exhaustive engine they
	// compare against.
	Tool Tool
	// TrialBudget is the approximate total number of full simulations to
	// spend across all static sites (default 64). Each site receives
	// samples proportional to its dynamic weight, at least one — so the
	// actual trial count is at most TrialBudget + #sites.
	TrialBudget int
	// Workers bounds parallelism (0: GOMAXPROCS).
	Workers int
	// Seed makes the estimate reproducible; trials are index-addressed
	// from it, so results are worker-count independent.
	Seed uint64
}

// TwoLevelResult is a propagated whole-application estimate.
type TwoLevelResult struct {
	Name   string
	Device string
	Tool   Tool

	// Sites is the number of static sites (distinct injectable opcodes
	// per distinct program) the workload exposes.
	Sites int
	// Trials is the number of full simulations actually spent.
	Trials int

	// SDCAVF / DUEAVF are the propagated point estimates (no Wilson
	// interval: the estimator's error is dominated by the per-site
	// approximation the cross-validation bounds, not by count noise).
	SDCAVF float64
	DUEAVF float64

	// Patterns is the propagated SDC pattern mix: each site's observed
	// mix weighted by that site's share of the predicted SDC mass.
	Patterns patterns.Mix
}

// Delta returns the signed SDC-AVF disagreement against an exhaustive
// campaign result.
func (t *TwoLevelResult) Delta(exact *Result) float64 {
	return t.SDCAVF - exact.SDCAVF.P
}

// Agrees reports whether the estimate lands within TwoLevelTolerance of
// the exhaustive campaign's SDC AVF.
func (t *TwoLevelResult) Agrees(exact *Result) bool {
	d := t.Delta(exact)
	if d < 0 {
		d = -d
	}
	return d <= TwoLevelTolerance
}

// Speedup returns how many times fewer simulations the estimate spent
// than the exhaustive campaign.
func (t *TwoLevelResult) Speedup(exact *Result) float64 {
	if t.Trials == 0 {
		return 0
	}
	return float64(exact.Injected) / float64(t.Trials)
}

// tlSite is one static site: an injectable opcode of one program,
// aggregated over every launch that runs the program.
type tlSite struct {
	op      isa.Op
	pop     population // op's dynamic lane-ops per launch; zero on other programs' launches
	samples int        // level-1 simulations assigned
}

// TwoLevelEstimateWithRunner runs the two-level estimation against an
// already-built runner, reusing its golden profiles and snapshots.
func TwoLevelEstimateWithRunner(cfg TwoLevelConfig, runner *kernels.Runner) (*TwoLevelResult, error) {
	budget := cfg.TrialBudget
	if budget <= 0 {
		budget = 64
	}
	sites := twoLevelSites(cfg, runner, budget)
	if len(sites) == 0 {
		return nil, fmt.Errorf("faultinj: %s has no injectable instructions under %s", runner.Name, cfg.Tool)
	}

	// Level 1: simulate each site's samples with the exact checkpointed
	// engine. Trials are index-addressed from (seed, site, sample) so
	// the outcome set is independent of worker scheduling.
	type job struct{ site, sample int }
	var jobs []job
	for si := range sites {
		for j := 0; j < sites[si].samples; j++ {
			jobs = append(jobs, job{si, j})
		}
	}
	records := make([]kernels.TrialRecord, len(jobs))
	err := par.ForEach(len(jobs), cfg.Workers, func(i int) error {
		s := sites[jobs[i].site]
		plan, launch := s.plan(cfg.Seed, jobs[i].site, jobs[i].sample)
		rec, err := runner.RunTrialWithFault(plan, launch)
		if err != nil {
			return fmt.Errorf("faultinj: two-level %s site %d sample %d: %w",
				runner.Name, jobs[i].site, jobs[i].sample, err)
		}
		records[i] = rec
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Fold records back into per-site tallies, in job order
	// (deterministic: jobs were laid out site-major).
	tallies := make([]Tally, len(sites))
	geo := runner.Instance().Output
	for i, rec := range records {
		tallies[jobs[i].site].Count(patterns.Observe(rec, geo))
	}

	// Level 2: propagate. Each site's outcome distribution stands in
	// for all of its dynamic occurrences, weighted by the site's share
	// of the injectable stream. Site order is already deterministic, so
	// the float accumulation is byte-stable.
	var totalOps uint64
	for _, s := range sites {
		totalOps += s.pop.total
	}
	res := &TwoLevelResult{
		Name: runner.Name, Device: runner.Dev.Name, Tool: cfg.Tool,
		Sites: len(sites), Trials: len(jobs),
	}
	var sdcMass float64
	for si, s := range sites {
		t := &tallies[si]
		w := float64(s.pop.total) / float64(totalOps)
		pSDC := float64(t.SDC) / float64(t.Injected)
		pDUE := float64(t.DUE) / float64(t.Injected)
		res.SDCAVF += w * pSDC
		res.DUEAVF += w * pDUE
		if t.SDC > 0 {
			res.Patterns.AddScaled(t.Patterns.Mix(), w*pSDC)
			sdcMass += w * pSDC
		}
	}
	if sdcMass > 0 {
		// Normalize back to fractions of (predicted) SDCs.
		var norm patterns.Mix
		norm.AddScaled(res.Patterns, 1/sdcMass)
		res.Patterns = norm
	}
	return res, nil
}

// twoLevelSites enumerates the workload's static sites and assigns the
// trial budget proportionally to dynamic weight (at least one sample
// per site). Sites are keyed by (program name, opcode): iterative
// workloads rebuild the same kernel per step with different embedded
// constants (FGAUSSIAN's fan1/fan2, one pair per elimination step), and
// those are the same static code — keying by pointer would multiply the
// site count by the step count and destroy the trial savings.
func twoLevelSites(cfg TwoLevelConfig, runner *kernels.Runner, budget int) []*tlSite {
	launches := runner.Instance().Launches
	profiles := runner.GoldenProfiles()
	var progs []string // program names in first-launch order
	opSets := make(map[string]map[isa.Op]bool)
	for li, l := range launches {
		ops := opSets[l.Prog.Name]
		if ops == nil {
			ops = make(map[isa.Op]bool)
			opSets[l.Prog.Name] = ops
			progs = append(progs, l.Prog.Name)
		}
		for op := range profiles[li].PerOpLane {
			if opInjectable(cfg.Tool, op) {
				ops[op] = true
			}
		}
	}
	var sites []*tlSite
	var totalOps uint64
	for _, prog := range progs {
		// Deterministic opcode order within the program.
		ops := make([]isa.Op, 0, len(opSets[prog]))
		for op := range opSets[prog] {
			ops = append(ops, op)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
		for _, op := range ops {
			perLaunch := make([]uint64, len(launches))
			for li, l := range launches {
				if l.Prog.Name == prog {
					perLaunch[li] = profiles[li].PerOpLane[op]
				}
			}
			if pop := newPopulation(perLaunch); pop.total > 0 {
				sites = append(sites, &tlSite{op: op, pop: pop})
				totalOps += pop.total
			}
		}
	}
	for _, s := range sites {
		s.samples = int(float64(budget)*float64(s.pop.total)/float64(totalOps) + 0.5)
		if s.samples < 1 {
			s.samples = 1
		}
	}
	return sites
}

// plan derives the site's j-th level-1 fault plan purely from (seed,
// site index, sample index), the same index-addressed determinism idiom
// as ClassSampler.Plan: identical inputs give an identical plan on any
// worker schedule. It picks one dynamic occurrence of the site,
// uniformly across its launches, and one destination bit.
func (s *tlSite) plan(seed uint64, site, sample int) (*sim.FaultPlan, int) {
	w1 := splitmix64(seed ^ splitmix64(uint64(s.op)+0x2c0de) ^
		splitmix64(uint64(site)<<20|uint64(sample)))
	w2 := splitmix64(w1 ^ 0x9e3779b97f4a7c15)
	rng := stats.NewRNG(w1, w2)
	launch, idx := s.pop.draw(rng)
	op := s.op
	return &sim.FaultPlan{
		Kind:         sim.FaultValueBit,
		Filter:       func(o isa.Op) bool { return o == op },
		TriggerIndex: idx,
		Bit:          rng.IntN(64),
	}, launch
}
