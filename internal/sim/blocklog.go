// Block logs: exact replay of single blocks without the scheduler
// (DESIGN §19). A golden re-simulation of a launch (RecordBlockLog)
// records, per block, the ordered (warp, pc) of every warp-instruction
// the block issues, stamped with its position in the launch's global
// issue order, plus which blocks read and write each global word. A
// launch is block-independent when no word one block writes is read or
// written by another (an atomic counts as both).
//
// In log mode a block issues its logged instructions in golden order,
// through the same issue path as the cycle engine, with no scheduler,
// no scoreboard wait and no other block. The result is exact under a
// certificate checked as the block runs:
//
//  1. every warp issues exactly its golden pc sequence and ends where
//     golden ends, and
//  2. every global access passes the block's fence: a load touches only
//     words no other block writes in golden, a store only words no
//     other block reads or writes.
//
// The scheduler reads a warp's pc sequence and the static decode of
// each pc, never data, so under (1) the full faulted run keeps the
// golden schedule; under (2) the other blocks then read golden inputs
// and run golden, and the replayed blocks see exactly the memory they
// see in log mode. Any doubt falls back to the cycle engine.
package sim

import (
	"fmt"

	"gpurel/internal/device"
	"gpurel/internal/mem"
)

// LogFallback names why a log-mode replay gave up and the launch went
// back to the cycle engine.
type LogFallback uint8

// Fallback reasons. LogOK means the replay was accepted.
const (
	LogOK LogFallback = iota
	// LogPCMismatch: a warp's next pc left its golden sequence, or a
	// warp did not end where it ends in golden.
	LogPCMismatch
	// LogFenced: a global access crossed the block fence.
	LogFenced
	// LogMultiDUE: a DUE while more than one block replayed.
	LogMultiDUE
)

// Per-word access marks of a BlockLog. A word's mark is noAccessor,
// manyReaders (read by two or more blocks, written by none), or the one
// block that accesses it, with soleWritten set when that block writes
// it.
const (
	noAccessor  = -1
	manyReaders = -2
	soleWritten = 1 << 30
)

// logEntry is one logged warp-instruction: its position in the
// launch's global issue order, the warp's index in its block, and pc.
type logEntry struct {
	seq  uint32
	warp uint16
	pc   uint16
}

// BlockLog is one launch's golden block record. A launch that is not
// block-independent keeps none of it (Eligible is false).
type BlockLog struct {
	eligible bool
	blocks   int

	off []int32    // issue log of block c: ent[off[c]:off[c+1]]
	ent []logEntry //
	acc []int32    // per allocated word: the access mark
	rd  []uint64   // per allocated word: bit c%64 for each reader c (optional)

	wOff  []int32  // golden writes of block c: wList[wOff[c]:wOff[c+1]]
	wList []uint32 // word indices
}

// BlockLogBytes is the memory a launch's BlockLog takes, from the
// launch's golden warp-instruction count, its block count, and its
// allocated words (null guard included): 8 bytes per logged
// instruction, two offset tables, and per word 4 bytes of access mark,
// 4 bytes of golden write list at its bound of one entry per word, and,
// with readers, 8 bytes of reader mask.
func BlockLogBytes(warpInstrs uint64, blocks, words int, readers bool) int {
	perWord := 8
	if readers {
		perWord += 8
	}
	return 8*int(warpInstrs) + 8*(blocks+1) + perWord*words
}

// Eligible reports whether the launch is block-independent, so its
// blocks can replay in log mode.
func (bl *BlockLog) Eligible() bool { return bl != nil && bl.eligible }

// Blocks returns the launch's block count.
func (bl *BlockLog) Blocks() int { return bl.blocks }

// Written reports whether some block writes the word in golden.
func (bl *BlockLog) Written(word uint32) bool {
	a := bl.acc[word]
	return a >= 0 && a&soleWritten != 0
}

// entries returns block c's issue log.
func (bl *BlockLog) entries(c int) []logEntry { return bl.ent[bl.off[c]:bl.off[c+1]] }

// Writes returns the words block c writes in golden, ascending.
func (bl *BlockLog) Writes(c int) []uint32 { return bl.wList[bl.wOff[c]:bl.wOff[c+1]] }

// ReaderMask returns the word's golden readers folded onto 64 bits: bit
// c%64 is set for every block c that reads the word. With more than 64
// blocks the mask names a superset of the readers. Only a log recorded
// with readers has the masks.
func (bl *BlockLog) ReaderMask(word uint32) uint64 { return bl.rd[word] }

// logRecorder collects a golden launch's issue log and access marks. It
// is the global-memory fence of the recording run, allowing every access.
type logRecorder struct {
	cur  int32 // block issuing now
	all  []recEntry
	acc  []int32
	rd   []uint64
	dep  bool // some written word is accessed by two blocks
	wide bool // a pc or warp index does not fit a logEntry
}

type recEntry struct {
	cta  int32
	warp uint16
	pc   uint16
}

func (r *logRecorder) issue(w *warpState, pc int32) {
	r.cur = int32(w.block.cta)
	if pc > 0xffff || w.widx > 0xffff {
		r.wide = true
	}
	r.all = append(r.all, recEntry{cta: r.cur, warp: uint16(w.widx), pc: uint16(pc)})
}

func (r *logRecorder) Allow(word, n uint32, a mem.Access) bool {
	for w := word; w < word+n; w++ {
		m := r.acc[w]
		switch {
		case m == noAccessor:
			m = r.cur
		case m >= 0 && m&^soleWritten == r.cur:
		default:
			if m >= 0 && m&soleWritten != 0 || a&mem.Write != 0 {
				r.dep = true
			}
			m = manyReaders
		}
		if a&mem.Write != 0 && m >= 0 {
			m |= soleWritten
		}
		r.acc[w] = m
		if a&mem.Read != 0 && r.rd != nil {
			r.rd[w] |= 1 << (r.cur & 63)
		}
	}
	return true
}

// RecordBlockLog re-simulates a launch from its golden boundary (the
// first image of its RunGolden sequence) on global, with recording on,
// and returns its BlockLog. cfg must describe the golden launch, and
// warpInstrs is its golden warp-instruction count (Profile.WarpInstrs),
// which sizes the log. readers asks for the reader masks: only a launch
// that follows another needs them, to find the blocks its dirty input
// reaches.
func RecordBlockLog(cfg Config, global *mem.Global, boundary *LaunchImage, warpInstrs uint64, readers bool) (*BlockLog, error) {
	e, err := newEngine(cfg, global)
	if err != nil {
		return nil, err
	}
	words := boundary.Mem.AllocatedBytes() / 4
	rec := &logRecorder{all: make([]recEntry, 0, warpInstrs), acc: make([]int32, words)}
	if readers {
		rec.rd = make([]uint64, words)
	}
	for i := range rec.acc {
		rec.acc[i] = noAccessor
	}
	e.logRec = rec
	global.Restore(boundary.Mem)
	global.SetFence(rec)
	res := e.run()
	blocks := e.totalBlock
	e.release()
	if res.Outcome != OutcomeOK {
		return nil, fmt.Errorf("sim: recording %s: golden launch raised %s", cfg.Program.Name, res.DUEReason)
	}
	bl := &BlockLog{blocks: blocks}
	if rec.dep || rec.wide || len(rec.all) > 1<<32-1 {
		return bl, nil
	}
	bl.eligible = true
	bl.off = make([]int32, blocks+1)
	for _, r := range rec.all {
		bl.off[r.cta+1]++
	}
	for c := 0; c < blocks; c++ {
		bl.off[c+1] += bl.off[c]
	}
	bl.ent = make([]logEntry, len(rec.all))
	fill := make([]int32, blocks)
	copy(fill, bl.off)
	for seq, r := range rec.all {
		bl.ent[fill[r.cta]] = logEntry{seq: uint32(seq), warp: r.warp, pc: r.pc}
		fill[r.cta]++
	}
	bl.acc, bl.rd = rec.acc, rec.rd
	bl.wOff = make([]int32, blocks+1)
	nw := 0
	for _, m := range bl.acc {
		if m >= 0 && m&soleWritten != 0 {
			bl.wOff[m&^soleWritten+1]++
			nw++
		}
	}
	for c := 0; c < blocks; c++ {
		bl.wOff[c+1] += bl.wOff[c]
	}
	bl.wList = make([]uint32, nw)
	copy(fill, bl.wOff)
	for w, m := range bl.acc {
		if m >= 0 && m&soleWritten != 0 {
			c := m &^ soleWritten
			bl.wList[fill[c]] = uint32(w)
			fill[c]++
		}
	}
	return bl, nil
}

// LogScratch is the caller-owned state of a trial's log-mode replays,
// reusable across launches and trials: the block fence and the
// executor's cursors. Stores collects the word index of every global
// store the replayed blocks made (repeats included); Replay and
// ReplayBlocks reset it.
type LogScratch struct {
	Stores []uint32

	fence  blockFence
	blocks []*blockState
	pos    []int32
}

// blockFence confines the global accesses of the block replaying now.
type blockFence struct {
	bl      *BlockLog
	block   int32
	tripped bool
	stores  *[]uint32
}

func (f *blockFence) Allow(word, n uint32, a mem.Access) bool {
	acc := f.bl.acc
	for w := word; w < word+n; w++ {
		if int(w) >= len(acc) {
			f.tripped = true
			return false
		}
		m := acc[w]
		own := m >= 0 && m&^soleWritten == f.block
		if a&mem.Write != 0 {
			if m != noAccessor && !own {
				f.tripped = true
				return false
			}
			*f.stores = append(*f.stores, w)
		} else if m >= 0 && m&soleWritten != 0 && !own {
			f.tripped = true
			return false
		}
	}
	return true
}

// arm resets the scratch for a replay of bl's launch on global and
// installs the fence (vetting block 0 until the executor names one).
func (ls *LogScratch) arm(bl *BlockLog, global *mem.Global) {
	ls.Stores = ls.Stores[:0]
	ls.fence = blockFence{bl: bl, stores: &ls.Stores}
	ls.blocks, ls.pos = ls.blocks[:0], ls.pos[:0]
	global.SetFence(&ls.fence)
}

// disarm drops the scratch's references into the engine's storage and
// the launch's log, so a pooled scratch pins neither.
func (ls *LogScratch) disarm() {
	clear(ls.blocks)
	ls.blocks = ls.blocks[:0]
	ls.fence.bl = nil
}

// switchToLog is the faulted issue of an armed Replay: the issue goes
// on under its block's fence, and the cycle loop stops after it so the
// block continues alone in log mode (Replay).
func (e *engine) switchToLog(w *warpState, pc int32) {
	blk := w.block
	e.logBlk = blk
	e.stop = true
	e.lg.arm(e.lgLog, e.glob)
	e.lg.fence.block = int32(blk.cta)
	// The cycle engine ran golden up to this issue, so it is the entry
	// at the block's issue count; the check guards the log itself.
	pos := blk.issued - 1
	if ent := e.lgLog.ent[e.lgLog.off[blk.cta]+pos]; int(ent.warp) != w.widx || int32(ent.pc) != pc {
		panic(fmt.Sprintf("sim: block log of %s disagrees with golden at block %d issue %d", e.prog.Name, blk.cta, pos))
	}
	e.lg.blocks = append(e.lg.blocks, blk)
	e.lg.pos = append(e.lg.pos, blk.issued)
}

// runLog issues the logged instructions of the scratch's blocks from
// their cursors, merged in golden global order, and checks the
// certificate. It returns LogOK when every block reached the end of its
// log with every warp where golden ends, or when the single replayed
// block raised a DUE with every warp's next pc still golden (the DUE is
// then the launch's outcome); otherwise the reason to fall back.
func (e *engine) runLog(bl *BlockLog) LogFallback {
	ls := e.lg
	blocks, pos := ls.blocks, ls.pos
	// No block may become resident behind a retiring one.
	e.nextBlock = e.totalBlock
	var slots [device.UnitCount]int
	for u := range slots {
		slots[u] = 1 << 62
	}
	if len(blocks) == 1 {
		blk := blocks[0]
		log := bl.entries(blk.cta)
		for p := int(pos[0]); p < len(log); p++ {
			if fb, stop := e.logIssue(blk, log[p], slots[:]); stop {
				if fb == LogOK && !pendingGolden(blk, log[p+1:], blk.warps[log[p].warp]) {
					fb = LogPCMismatch
				}
				return fb
			}
		}
	} else {
		for {
			k := -1
			var best uint32
			for i, blk := range blocks {
				if p := bl.off[blk.cta] + pos[i]; p < bl.off[blk.cta+1] && (k < 0 || bl.ent[p].seq < best) {
					k, best = i, bl.ent[p].seq
				}
			}
			if k < 0 {
				break
			}
			ent := bl.ent[bl.off[blocks[k].cta]+pos[k]]
			pos[k]++
			if fb, stop := e.logIssue(blocks[k], ent, slots[:]); stop {
				if fb == LogOK {
					fb = LogMultiDUE
				}
				return fb
			}
		}
	}
	for _, blk := range blocks {
		for _, w := range blk.warps {
			if !w.done {
				return LogPCMismatch
			}
		}
	}
	return LogOK
}

// logIssue issues one logged instruction of blk after checking that
// the warp's next pc is the logged one. stop reports that the replay
// ends here: with LogPCMismatch or LogFenced, or with LogOK for a DUE,
// which the caller vets.
func (e *engine) logIssue(blk *blockState, ent logEntry, slots []int) (fb LogFallback, stop bool) {
	w := blk.warps[ent.warp]
	if w.done {
		return LogPCMismatch, true
	}
	top := w.effTop()
	if top == nil || top.pc != int32(ent.pc) {
		return LogPCMismatch, true
	}
	e.lg.fence.block = int32(blk.cta)
	e.issue(&e.st.logSM, w, top, slots)
	switch {
	case e.due == "":
		return LogOK, false
	case e.lg.fence.tripped:
		return LogFenced, true
	}
	return LogOK, true
}

// pendingGolden reports whether every warp of blk would issue next what
// it issues next in golden (rest is the block's log after the issue
// that raised a DUE), or is done exactly when golden has it done: the
// full run then reaches the DUE on the golden schedule. The warp due
// that raised the DUE is exempt: nothing issues after the DUE.
func pendingGolden(blk *blockState, rest []logEntry, due *warpState) bool {
	for _, w := range blk.warps {
		if w == due {
			continue
		}
		next := -1
		for _, ent := range rest {
			if int(ent.warp) == w.widx {
				next = int(ent.pc)
				break
			}
		}
		if next < 0 {
			if !w.done {
				return false
			}
			continue
		}
		if w.done {
			return false
		}
		if top := w.effTop(); top == nil || top.pc != int32(next) {
			return false
		}
	}
	return true
}

// ReplayBlocks replays the blocks ctas of a block-independent launch
// alone, in log mode, from the launch boundary, on global as the caller
// materialized it (the launch's golden boundary plus the trial's dirty
// words). With Result.LogFallback set the replay was abandoned and
// global is clobbered: the caller re-materializes it and runs the
// launch with Run.
func ReplayBlocks(cfg Config, global *mem.Global, bl *BlockLog, ctas []int32, ls *LogScratch) (*Result, error) {
	if !bl.Eligible() {
		return nil, fmt.Errorf("sim: ReplayBlocks needs a block-independent launch")
	}
	e, err := newEngine(cfg, global)
	if err != nil {
		return nil, err
	}
	e.lg = ls
	ls.arm(bl, global)
	for _, c := range ctas {
		ls.blocks = append(ls.blocks, e.startBlock(int(c)))
		ls.pos = append(ls.pos, 0)
	}
	fb := e.runLog(bl)
	ls.disarm()
	res := e.result()
	res.LogBlocks, res.LogFallback = len(ctas), fb
	e.release()
	return res, nil
}
