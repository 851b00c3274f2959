// Adaptive campaign support: deterministic, index-addressable per-class
// fault sampling for the campaign daemon (internal/serve, `gpurel serve`).
//
// The batch campaigns in this package draw every plan from one
// sequential RNG stream, which ties the sampled sequence to the exact
// order plans are built. An adaptively-stopped campaign cannot afford
// that coupling: trials are sharded across a worker pool, classes stop
// at different times, and the trial count is unknown up front. The
// ClassSampler instead derives trial i of a class from (seed, class, i)
// alone — the split-RNG determinism scheme of the PR-2 engine taken to
// its limit — so any subset of indices, executed in any order on any
// number of workers, yields the same plans, and a campaign resumed from
// a checkpoint continues the exact sequence it would have run.
package faultinj

import (
	"fmt"

	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
	"gpurel/internal/stats"
)

// ClassSampler draws the adaptive campaign's injection plans for one
// instruction class of one runner: IOV value-bit faults (the NVBitFI
// site semantics) dynamically weighted over the class's lane-ops.
// It is immutable after construction and safe for concurrent use.
type ClassSampler struct {
	Class isa.Class
	Tool  Tool

	filter func(isa.Op) bool
	pop    population
}

// NewClassSampler prepares the sampler for one class, returning ok =
// false when the tool has no injectable dynamic population in that
// class (nothing to sample).
func NewClassSampler(r *kernels.Runner, tool Tool, class isa.Class) (*ClassSampler, bool) {
	filter := classFilter(tool, class)
	pop := newPopulation(r.LaunchLaneOps(filter))
	if pop.total == 0 {
		return nil, false
	}
	return &ClassSampler{Class: class, Tool: tool, filter: filter, pop: pop}, true
}

// Population returns the class's injectable dynamic lane-op count.
func (s *ClassSampler) Population() uint64 { return s.pop.total }

// Plan returns the index-th injection plan of the campaign identified
// by seed: a pure function of (seed, class, index), independent of how
// many plans were drawn before it or on which worker it runs.
func (s *ClassSampler) Plan(seed, index uint64) (*sim.FaultPlan, int) {
	// Two independent seed words from (seed, class, index). splitmix64
	// decorrelates consecutive indices; the class and a distinct salt
	// per word keep streams disjoint across classes and campaigns.
	w1 := splitmix64(seed ^ splitmix64(uint64(s.Class)+0x51a3) ^ splitmix64(index))
	w2 := splitmix64(w1 ^ 0x9e3779b97f4a7c15)
	rng := stats.NewRNG(w1, w2)
	launch, idx := s.pop.draw(rng)
	return &sim.FaultPlan{
		Kind: sim.FaultValueBit, Filter: s.filter,
		TriggerIndex: idx, Bit: rng.IntN(64),
	}, launch
}

// AdaptiveClasses returns the instruction classes with a nonzero
// injectable population for the tool on this runner, in deterministic
// (class-value) order — the per-class campaigns an adaptive run
// stratifies over, mirroring the paper's per-class sampling discipline.
func AdaptiveClasses(r *kernels.Runner, tool Tool) []isa.Class {
	var out []isa.Class
	for c := isa.Class(0); c < isa.ClassCount; c++ {
		if _, ok := NewClassSampler(r, tool, c); ok {
			out = append(out, c)
		}
	}
	return out
}

// ClassByName resolves a Figure-1 class label ("FMA", "LDST", ...)
// back to its isa.Class, the inverse of Class.String for checkpoint
// round-trips.
func ClassByName(name string) (isa.Class, error) {
	for c := isa.Class(0); c < isa.ClassCount; c++ {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("faultinj: unknown instruction class %q", name)
}

// splitmix64 is the SplitMix64 finalizer: a bijective mixer whose
// output sequence over consecutive inputs passes BigCrush, which makes
// it safe to derive per-index RNG seeds from small integers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
