// Trials: a faulted program run one launch at a time (DESIGN §19). A
// Trial carries the run's global memory as the golden boundary of the
// launch it is at plus a sparse dirty set, the words that differ from
// it with their values, and makes its memory hold exactly that only
// when a launch has to run on it. Launch runs one launch:
//
//   - the fault launch starts from the latest checkpoint preceding the
//     trigger (startImage). An operation fault on a single-writer launch
//     runs only its faulted block, in log mode; any other fault, a
//     trigger past the last issue, and every log fallback run the cycle
//     engine from the same checkpoint, which rejoins golden where it can;
//   - a later launch is skipped when no block reads a dirty word,
//     replays only the blocks that do, in log mode, when it is
//     single-writer and they are one block or it has no foreign reads,
//     and otherwise, or on a fallback, runs the cycle engine on the
//     materialized memory.
//
// Either way the dirty set is left relative to the next launch's
// boundary.
package sim

import "gpurel/internal/mem"

// Trial is the reusable state of one faulted trial: its working memory,
// the dirty set, and the log-mode scratch. A Trial runs one trial at a
// time, and is reused across trials and runners of one memory size.
type Trial struct {
	g *mem.Global
	// materialized reports that g holds the boundary plus the dirty set.
	materialized bool
	dirty        []dirtyWord
	next         []dirtyWord // the dirty set settle builds
	ctas         []int32
	idx          []uint32
	// seen marks the words settle has considered, as a bitset; the words
	// are listed in idx so settle can clear exactly them.
	seen []uint64
	lg   logScratch
}

type dirtyWord struct{ word, val uint32 }

// NewTrial returns a Trial whose memory is size bytes: the largest
// allocation high-water mark (mem.Snapshot.AllocatedBytes) among the
// checkpoints it will restore, not the source memory's capacity.
// Builders allocate host-side, and every kernel access is
// bounds-checked against the high-water mark, so a replay never touches
// a word above it.
func NewTrial(size int) *Trial {
	return &Trial{g: mem.NewGlobal(size), seen: make([]uint64, size/256+1)}
}

// Launch runs one launch of the trial. cfg is the launch's replay
// configuration, with the fault plan for the fault launch, which a
// trial runs first, and none for the launches after it. seq is the
// launch's golden checkpoint sequence (RunGolden), and next the golden
// memory after the launch: the next launch's boundary, or the
// program's final memory. log returns the launch's block log, or nil
// while there is none to use; Launch asks for it only where it would
// use one. Every engine Launch builds is lean (Result.Profile), and
// the plan is only read: what it did comes back in Result.Fire.
//
// A DUE or a rejoin ends the trial. Otherwise Clean reports the
// boundary cutoff, and Memory gives the memory past the last launch.
func (t *Trial) Launch(cfg Config, seq []*LaunchImage, next *mem.Snapshot, log func() (*BlockLog, error)) (Result, error) {
	if cfg.Fault == nil {
		return t.later(cfg, seq[0].Mem, next, log)
	}
	t.dirty = t.dirty[:0]
	start := startImage(seq, cfg.Fault)
	fb := LogOK
	if cfg.Fault.Kind < FaultRFBit {
		bl, err := log()
		switch {
		case err != nil:
			return Result{}, err
		case bl == nil:
		case !bl.eligible:
			fb = LogIneligible
		default:
			res, err := t.replayFault(cfg, seq[start], next, bl)
			if err != nil || res.Logged {
				res.StartImage = start
				return res, err
			}
			fb = res.LogFallback
		}
	}
	e, err := newEngine(cfg, t.g, false)
	if err != nil {
		return Result{}, err
	}
	e.golden = seq[start+1:]
	e.restoreImage(seq[start])
	e.simulate()
	res := e.result()
	e.release()
	res.StartImage, res.LogFallback = start, fb
	if res.Outcome == OutcomeOK && !res.RejoinedGolden {
		t.diff(next)
	}
	return res, nil
}

// replayFault runs the fault launch in log mode from its start image
// img (engine.replayFaulted). The Result is not Logged on a fallback,
// nor, with nothing run and LogOK, when the trigger lies past the
// launch's last issue.
func (t *Trial) replayFault(cfg Config, img *LaunchImage, next *mem.Snapshot, bl *BlockLog) (Result, error) {
	e, err := newEngine(cfg, t.g, false)
	if err != nil {
		return Result{}, err
	}
	blk, fb, err := e.replayFaulted(bl, &t.lg, img, next)
	if blk == nil {
		e.release()
		return Result{}, err
	}
	t.ctas = append(t.ctas[:0], int32(blk.cta))
	return t.logged(e, fb, next, bl), nil
}

// later runs a launch after the fault launch from its golden boundary
// cur plus the dirty set.
func (t *Trial) later(cfg Config, cur, next *mem.Snapshot, log func() (*BlockLog, error)) (Result, error) {
	bl, err := log()
	if err != nil {
		return Result{}, err
	}
	fb := LogOK
	switch {
	case bl == nil:
	case !bl.eligible:
		fb = LogIneligible
	default:
		n := t.readers(bl)
		if n == 0 {
			// No block reads a dirty word: every block runs golden, and
			// the words they write become golden again.
			kept := t.dirty[:0]
			for _, d := range t.dirty {
				if !bl.written(d.word) {
					kept = append(kept, d)
				}
			}
			t.dirty, t.materialized = kept, false
			return Result{Skipped: true}, nil
		}
		if n > 1 && len(bl.frd) > 0 {
			// Several blocks replay only one after another, which is
			// exact only without foreign reads.
			fb = LogMultiReader
			break
		}
		// Only the readers of a dirty word run, alone, in log mode.
		t.materialize(cur)
		e, err := newEngine(cfg, t.g, false)
		if err != nil {
			return Result{}, err
		}
		t.lg.arm(e, bl, next)
		for _, c := range t.ctas {
			t.lg.add(e.startBlock(int(c)), 0)
		}
		fb = e.runLog(bl, 0)
		if res := t.logged(e, fb, next, bl); res.Logged {
			return res, nil
		}
	}
	t.materialize(cur)
	e, err := newEngine(cfg, t.g, false)
	if err != nil {
		return Result{}, err
	}
	e.simulate()
	res := e.result()
	e.release()
	res.LogFallback = fb
	if res.Outcome == OutcomeOK {
		t.diff(next)
	}
	return res, nil
}

// logged ends a log-mode replay of the blocks t.ctas on engine e, with
// the executor's verdict fb. On LogOK the launch is Logged and, unless
// it raised a DUE, the dirty set is settled against next; on a fallback
// the memory is clobbered.
func (t *Trial) logged(e *engine, fb LogFallback, next *mem.Snapshot, bl *BlockLog) Result {
	res := e.result()
	e.release()
	t.materialized = false
	res.LogFallback, res.Logged = fb, fb == LogOK
	if !res.Logged {
		return res
	}
	res.Replayed, res.Resolved = len(t.ctas), t.lg.resolved
	if res.Outcome == OutcomeOK {
		t.settle(next, bl)
	}
	return res
}

// Clean reports that the memory equals the golden boundary the last
// launch left the dirty set against: the rest of the program replays
// golden, and its comparator must pass.
func (t *Trial) Clean() bool { return len(t.dirty) == 0 }

// Memory returns the trial's memory past its last launch: final, the
// next memory of the last Launch, plus the dirty set.
func (t *Trial) Memory(final *mem.Snapshot) *mem.Global {
	t.materialize(final)
	return t.g
}

// materialize makes the memory the golden boundary snap plus the dirty
// set, unless it holds that already.
func (t *Trial) materialize(snap *mem.Snapshot) {
	if t.materialized {
		return
	}
	t.g.Restore(snap)
	for _, d := range t.dirty {
		t.g.SetWord(d.word*4, d.val)
	}
	t.materialized = true
}

// diff sets the dirty set to every word at which the memory, which the
// cycle engine ran the launch on, differs from next.
func (t *Trial) diff(next *mem.Snapshot) {
	t.idx = t.g.AppendDiff(next, t.idx[:0])
	t.dirty = t.dirty[:0]
	for _, w := range t.idx {
		t.dirty = append(t.dirty, dirtyWord{w, t.g.Word(w * 4)})
	}
	t.materialized = true
}

// readers sets t.ctas to the blocks of bl's launch whose golden reads
// meet the dirty set (a superset of them past 64 blocks) and returns
// their number.
func (t *Trial) readers(bl *BlockLog) int {
	var m uint64
	for _, d := range t.dirty {
		m |= bl.rd[d.word]
	}
	t.ctas = t.ctas[:0]
	if m != 0 {
		for c := 0; c < bl.blocks; c++ {
			if m>>(c&63)&1 != 0 {
				t.ctas = append(t.ctas, int32(c))
			}
		}
	}
	return len(t.ctas)
}

// settle rebuilds the dirty set against next after the blocks t.ctas of
// bl's launch ran in log mode: of the dirty words no block writes in
// golden, the replayed blocks' golden writes and their stores, the
// words at which the memory differs from next. Only those can: every
// other block ran golden.
func (t *Trial) settle(next *mem.Snapshot, bl *BlockLog) {
	t.next, t.idx = t.next[:0], t.idx[:0]
	for _, d := range t.dirty {
		if !bl.written(d.word) {
			t.add(next, d.word)
		}
	}
	for _, c := range t.ctas {
		for _, w := range bl.writes(int(c)) {
			t.add(next, w)
		}
	}
	for _, w := range t.lg.stores {
		t.add(next, w)
	}
	for _, w := range t.idx {
		t.seen[w/64] = 0
	}
	t.dirty, t.next = t.next, t.dirty
	t.materialized = false
}

// add puts word w in the dirty set settle builds, once, if the memory
// differs from next there.
func (t *Trial) add(next *mem.Snapshot, w uint32) {
	if t.seen[w/64]&(1<<(w%64)) != 0 {
		return
	}
	t.seen[w/64] |= 1 << (w % 64)
	t.idx = append(t.idx, w)
	if v := t.g.Word(w * 4); v != next.Word(w*4) {
		t.next = append(t.next, dirtyWord{w, v})
	}
}
