package kernels

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gpurel/internal/mem"
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
		g := r.pool.Get()
		defer r.pool.Put(g)
		cfg := r.replayConfig(i)
		cfg.MaxCycles = 0
		ll.bl, ll.err = sim.RecordBlockLog(cfg, g, r.ckpts[i][0], r.goldenProfiles[i].WarpInstrs, i > 0)
	})
	return ll.bl, ll.err
}

// Fallback reasons counted by LogStats: the sim.LogFallback reasons
// (indexed by their value; LogOK's slot stays zero), plus a launch that
// had to run under the cycle engine because it is not single-writer.
const (
	fallbackIneligible = int(sim.LogForeignRead) + 1
	fallbackKinds      = fallbackIneligible + 1
)

func (r *Runner) countFallback(f sim.LogFallback) {
	if f != sim.LogOK {
		r.fallbacks[f].Add(1)
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
	// Fallbacks to the cycle engine, by reason: a warp left its golden
	// pc sequence, an access crossed the block fence, a DUE while more
	// than one block replayed, a block that did not replay would have
	// read a non-golden value, and launches that are not single-writer
	// (an operation fault's launch, or a later launch with dirty words).
	PCMismatch, Fenced, MultiDUE, ForeignRead, Ineligible uint64
}

// String renders the stats for a progress line.
func (s LogStats) String() string {
	return fmt.Sprintf("log-mode launches %d (fault launches from the start image %d), skipped %d, fallbacks pc %d fence %d multi-block DUE %d foreign read %d ineligible %d",
		s.Logged, s.Prefixed, s.Skipped, s.PCMismatch, s.Fenced, s.MultiDUE, s.ForeignRead, s.Ineligible)
}

// LogStats reports the log-mode accounting of the runner's replays.
func (r *Runner) LogStats() LogStats {
	return LogStats{
		Logged:      r.logged.Load(),
		Prefixed:    r.prefixed.Load(),
		Skipped:     r.skipped.Load(),
		PCMismatch:  r.fallbacks[sim.LogPCMismatch].Load(),
		Fenced:      r.fallbacks[sim.LogFenced].Load(),
		MultiDUE:    r.fallbacks[sim.LogMultiDUE].Load(),
		ForeignRead: r.fallbacks[sim.LogForeignRead].Load(),
		Ineligible:  r.fallbacks[fallbackIneligible].Load(),
	}
}

// trialScratch is one trial's reusable state: the log-mode scratch and
// the dirty set, the words at which memory differs from the current
// golden boundary, with their values.
type trialScratch struct {
	log   sim.LogScratch
	dirty []dirtyWord
	next  []dirtyWord // the dirty set being built (begin ... end)
	ctas  []int32
	idx   []uint32
	// seen marks the words considered since begin, as a bitset; the
	// words are listed in idx so end can clear exactly them.
	seen []uint64
}

type dirtyWord struct{ word, val uint32 }

// diff sets the dirty set to every word at which g differs from next.
func (ts *trialScratch) diff(g *mem.Global, next *mem.Snapshot) {
	ts.idx = g.AppendDiff(next, ts.idx[:0])
	ts.dirty = ts.dirty[:0]
	for _, w := range ts.idx {
		ts.dirty = append(ts.dirty, dirtyWord{w, g.Word(w * 4)})
	}
}

// begin starts building the next dirty set from candidate words.
func (ts *trialScratch) begin() {
	ts.next = ts.next[:0]
	ts.idx = ts.idx[:0]
}

// add puts each candidate word at which g differs from next in the
// dirty set being built, once.
func (ts *trialScratch) add(g *mem.Global, next *mem.Snapshot, words []uint32) {
	for _, w := range words {
		ts.add1(g, next, w)
	}
}

func (ts *trialScratch) add1(g *mem.Global, next *mem.Snapshot, w uint32) {
	if ts.seen[w/64]&(1<<(w%64)) != 0 {
		return
	}
	ts.seen[w/64] |= 1 << (w % 64)
	ts.idx = append(ts.idx, w)
	if v := g.Word(w * 4); v != next.Word(w*4) {
		ts.next = append(ts.next, dirtyWord{w, v})
	}
}

// keepUnwritten carries the dirty words no block of bl's launch writes
// in golden into the set being built, at their value in g.
func (ts *trialScratch) keepUnwritten(g *mem.Global, next *mem.Snapshot, bl *sim.BlockLog) {
	for _, d := range ts.dirty {
		if !bl.Written(d.word) {
			ts.add1(g, next, d.word)
		}
	}
}

// end makes the set built since begin the dirty set.
func (ts *trialScratch) end() {
	for _, w := range ts.idx {
		ts.seen[w/64] = 0
	}
	ts.dirty, ts.next = ts.next, ts.dirty
}

// dropWritten removes the words some block of bl's launch writes in
// golden: past a launch whose blocks all run golden, they are golden.
func (ts *trialScratch) dropWritten(bl *sim.BlockLog) {
	kept := ts.dirty[:0]
	for _, d := range ts.dirty {
		if !bl.Written(d.word) {
			kept = append(kept, d)
		}
	}
	ts.dirty = kept
}

// readers returns the blocks of bl's launch whose golden reads meet the
// dirty set (a superset of them past 64 blocks, sim.BlockLog.ReaderMask).
func (ts *trialScratch) readers(bl *sim.BlockLog) []int32 {
	var m uint64
	for _, d := range ts.dirty {
		m |= bl.ReaderMask(d.word)
	}
	ts.ctas = ts.ctas[:0]
	if m != 0 {
		for c := 0; c < bl.Blocks(); c++ {
			if m>>(c&63)&1 != 0 {
				ts.ctas = append(ts.ctas, int32(c))
			}
		}
	}
	return ts.ctas
}

// materialize makes g the golden boundary snap plus the dirty set.
func (ts *trialScratch) materialize(g *mem.Global, snap *mem.Snapshot) {
	g.Restore(snap)
	for _, d := range ts.dirty {
		g.SetWord(d.word*4, d.val)
	}
}
