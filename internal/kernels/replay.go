package kernels

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gpurel/internal/sim"
)

// launchLog is one launch's block log, recorded once logAfter trials
// asked for it.
type launchLog struct {
	asks atomic.Uint32 // trials that asked for the log (logFor), up to logAfter
	once sync.Once
	bl   *sim.BlockLog
	err  error
}

// logAfter is the number of trials that must ask for a launch's block
// log before it is recorded. Recording costs a little more than a
// golden run of the launch, a few replays' worth, so a runner that
// replays a launch only a few times, such as a daemon's warm-up
// campaign, never pays for it.
const logAfter = 8

// logFor returns the block log a trial uses for launch i: none (nil)
// until logAfter trials have asked, the recorded log from then on.
func (r *Runner) logFor(i int) (*sim.BlockLog, error) {
	if ll := &r.logs[i]; ll.asks.Load() < logAfter && ll.asks.Add(1) < logAfter {
		return nil, nil
	}
	return r.blockLog(i)
}

// blockLog returns launch i's block log, re-simulating the launch from
// its golden boundary with recording on the first time it is asked for.
func (r *Runner) blockLog(i int) (*sim.BlockLog, error) {
	ll := &r.logs[i]
	ll.once.Do(func() {
		cfg := r.replayConfig(i)
		cfg.MaxCycles = 0
		ll.bl, ll.err = sim.RecordBlockLog(cfg, r.ckpts[i][0], r.goldenProfiles[i].WarpInstrs, i > 0)
	})
	return ll.bl, ll.err
}

// count adds one launch of a trial, the fault launch if fault is set,
// to the replay accounting.
func (r *Runner) count(res *sim.Result, fault bool) {
	if res.StartImage > 0 {
		r.subRestores.Add(1)
	}
	if res.RejoinedGolden {
		r.subRejoins.Add(1)
	}
	if res.Logged {
		r.logged.Add(1)
		r.resolved.Add(uint64(res.Resolved))
	}
	if res.Skipped {
		r.skipped.Add(1)
	}
	if res.LogFallback != sim.LogOK {
		r.fallbacks[res.LogFallback].Add(1)
	}
	if fault && (res.Logged || res.LogFallback != sim.LogOK && res.LogFallback != sim.LogIneligible) {
		r.prefixed.Add(1)
	}
}

// LogStats counts how the launches of faulted replays ran past the
// fire point (DESIGN §19).
type LogStats struct {
	// Logged counts launches finished in log mode: fault launches
	// whose faulted block ran alone, and later launches that replayed
	// only the blocks reading a dirty word.
	Logged uint64
	// Prefixed counts fault launches whose pre-fire prefix ran in log
	// mode, from the start image, whether the replay was then accepted
	// or fell back.
	Prefixed uint64
	// Skipped counts later launches no block of which reads a dirty word.
	Skipped uint64
	// Resolved counts the accesses of log-mode launches' lone replayed
	// blocks to another block's written word that the fence resolved
	// from its golden write seqs instead of falling back.
	Resolved uint64
	// Fallbacks to the cycle engine, by reason: a warp left its golden
	// pc sequence, an access crossed the block fence, a DUE while more
	// than one block replayed, a block that did not replay would have
	// read a non-golden value, a later launch with foreign reads whose
	// dirty words several blocks read, and launches that are not
	// single-writer (an operation fault's launch, or a later launch with
	// dirty words).
	PCMismatch, Fenced, MultiDUE, ForeignRead, MultiReader, Ineligible uint64
}

// String renders the stats for a progress line.
func (s LogStats) String() string {
	return fmt.Sprintf("log-mode launches %d (fault launches from the start image %d), skipped %d, resolved accesses %d, fallbacks pc %d fence %d multi-block DUE %d foreign read %d several readers %d ineligible %d",
		s.Logged, s.Prefixed, s.Skipped, s.Resolved, s.PCMismatch, s.Fenced, s.MultiDUE, s.ForeignRead, s.MultiReader, s.Ineligible)
}

// LogStats reports the log-mode accounting of the runner's replays.
func (r *Runner) LogStats() LogStats {
	return LogStats{
		Logged:      r.logged.Load(),
		Prefixed:    r.prefixed.Load(),
		Skipped:     r.skipped.Load(),
		Resolved:    r.resolved.Load(),
		PCMismatch:  r.fallbacks[sim.LogPCMismatch].Load(),
		Fenced:      r.fallbacks[sim.LogFenced].Load(),
		MultiDUE:    r.fallbacks[sim.LogMultiDUE].Load(),
		ForeignRead: r.fallbacks[sim.LogForeignRead].Load(),
		MultiReader: r.fallbacks[sim.LogMultiReader].Load(),
		Ineligible:  r.fallbacks[sim.LogIneligible].Load(),
	}
}
