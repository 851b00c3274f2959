// Block logs: exact replay of single blocks without the scheduler
// (DESIGN §19). A golden re-simulation of a launch (RecordBlockLog)
// records, per block, the ordered (warp, pc) of every warp-instruction
// the block issues, stamped with its position in the launch's global
// issue order (its seq) and with the lanes it executed; which blocks
// read and write each global word; per written word the seqs of its
// first golden write and of its last golden access; and the launch's
// foreign reads, the loads of a word by a block that is not the word's
// writer. A launch is single-writer when every word written in golden
// has exactly one writer block (an atomic counts as a read and a
// write).
//
// In log mode a block issues its logged instructions in golden order,
// through the same issue path as the cycle engine, with no scheduler,
// no scoreboard wait and no other block. The result is exact under a
// certificate checked as the replayed blocks run:
//
//  1. every warp issues exactly its golden pc sequence and ends where
//     golden ends;
//  2. every global access passes the block's fence: a store touches
//     only words the block accesses in golden or no block accesses, and
//     a load of a word another block writes is one of the block's golden
//     foreign reads at that seq. A lone replayed block may also load
//     another block's written word before its first golden write or at
//     or past its last golden access, and store to it at or past its
//     last access; and
//  3. every golden foreign read of a replayed block's word by a block
//     that does not replay finds its golden value in memory at its seq.
//
// The scheduler reads a warp's pc sequence and the static decode of
// each pc, never data, so under (1) the full faulted run keeps the
// golden schedule. By induction over seq, (2) and (3) then give every
// block that does not replay golden inputs, so it runs golden, and a
// replayed block's foreign read gets what the full run reads: the
// recorded golden value once the writer had written the word, the
// launch-start memory before. A lone block's other loads of a written
// word read the launch-start value before its first write, and the
// next boundary's value (or the block's own later store) past its last
// access; its store past the last access is read by no other block.
// Any doubt falls back to the cycle engine.
//
// Log mode has one order: the replayed blocks run one after another,
// each to the end of its log. They are a lone block, or the blocks of a
// launch without foreign reads; a later launch with foreign reads whose
// dirty set reaches several blocks runs the cycle engine
// (LogMultiReader). With several blocks the fence keeps every block from
// seeing another replayed block's stores: a store to a word the block
// does not write in golden trips, and so does a load of another block's
// written word. Every store then lands on a word only its own block
// reads or writes, and each block's run is the same in any order.
package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"

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
	// LogForeignRead: a block that did not replay would have read a
	// non-golden value from a replayed block's word.
	LogForeignRead
	// LogMultiReader: a later launch with foreign reads whose dirty set
	// reaches several blocks, so log mode was never tried.
	LogMultiReader
	// LogIneligible: the launch is not single-writer, so log mode was
	// never tried.
	LogIneligible
)

// Per-word access marks of a BlockLog. A word's mark is noAccessor,
// manyReaders (read by two or more blocks, written by none), or the one
// block that writes it, with soleWritten set, or the one block that
// reads it and nothing else.
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

// foreignRead is one golden load of a word by a block that is not the
// word's writer: its seq, the reader, the word and the value it read,
// and whether the writer had written the word before (otherwise the
// value is the launch-start memory's).
type foreignRead struct {
	seq, word, val uint32
	reader         int32
	written        bool
}

// foreignReadBytes is the size of a foreignRead.
const foreignReadBytes = 20

// maxForeignReads caps a launch's foreign reads at one per four golden
// warp-instructions; a launch with more keeps no log. The densest
// single-writer launch of the suite, BFS's sixth (523 foreign reads in
// 2,208 warp-instructions), stays under it.
func maxForeignReads(warpInstrs uint64) int { return int(warpInstrs / 4) }

// BlockLog is one launch's golden block record. A launch that is not
// single-writer keeps none of it (Eligible is false).
type BlockLog struct {
	eligible bool
	blocks   int

	off   []int32    // issue log of block c: ent[off[c]:off[c+1]]
	ent   []logEntry //
	lanes []uint8    // per entry: the lanes it executed (0 for control flow)
	order []int32    // per seq: the index of its entry in ent
	acc   []int32    // per allocated word: the access mark
	// rd is, per allocated word, its golden readers folded onto 64
	// bits: bit c%64 for every block c that reads it, a superset of the
	// readers past 64 blocks. Only a log recorded with readers has it.
	rd []uint64

	wOff  []int32  // golden writes of block c: wList[wOff[c]:wOff[c+1]]
	wList []uint32 // word indices
	// Parallel to wList: one past the seq of the word's first golden
	// write, and one past the seq of its last golden access by any block.
	wFirst, wLast []uint32

	frd []foreignRead // the golden foreign reads, by seq
}

// BlockLogBytes bounds the memory a launch's BlockLog takes, from the
// launch's golden warp-instruction count, its block count, its
// allocated words (null guard included), and a bound on the words it
// writes in golden (capped at words): per logged instruction 8 bytes of
// issue log, 1 byte of lane count and 4 bytes of seq index; the foreign
// reads at their cap; two offset tables; per word 4 bytes of access
// mark and, with readers, 8 bytes of reader mask; and per written word
// 4 bytes of golden write list and 8 bytes of write seqs.
func BlockLogBytes(warpInstrs uint64, blocks, words, written int, readers bool) int {
	perWord := 4
	if readers {
		perWord += 8
	}
	return 13*int(warpInstrs) + foreignReadBytes*maxForeignReads(warpInstrs) + 8*(blocks+1) +
		perWord*words + 12*min(written, words)
}

// Eligible reports whether the launch is single-writer, so its blocks
// can replay in log mode.
func (bl *BlockLog) Eligible() bool { return bl != nil && bl.eligible }

// written reports whether some block writes the word in golden.
func (bl *BlockLog) written(word uint32) bool {
	a := bl.acc[word]
	return a >= 0 && a&soleWritten != 0
}

// entries returns block c's issue log.
func (bl *BlockLog) entries(c int) []logEntry { return bl.ent[bl.off[c]:bl.off[c+1]] }

// writes returns the words block c writes in golden, ascending.
func (bl *BlockLog) writes(c int) []uint32 { return bl.wList[bl.wOff[c]:bl.wOff[c+1]] }

// readsFrom returns the index of the first foreign read at or after seq.
func (bl *BlockLog) readsFrom(seq uint32) int {
	return sort.Search(len(bl.frd), func(i int) bool { return bl.frd[i].seq >= seq })
}

// foreignRead returns block c's golden foreign read of word at seq, or
// nil when it has none.
func (bl *BlockLog) foreignRead(seq uint32, c int32, word uint32) *foreignRead {
	for i := bl.readsFrom(seq); i < len(bl.frd) && bl.frd[i].seq == seq; i++ {
		if fr := &bl.frd[i]; fr.word == word && fr.reader == c {
			return fr
		}
	}
	return nil
}

// writeSeqs returns one past the seq of the first golden write of word,
// which block c writes, and one past the seq of its last golden access.
func (bl *BlockLog) writeSeqs(c int32, word uint32) (first, last uint32) {
	i, _ := slices.BinarySearch(bl.writes(int(c)), word)
	k := int(bl.wOff[c]) + i
	return bl.wFirst[k], bl.wLast[k]
}

// writer returns the block that writes the word in golden, or -1.
func (bl *BlockLog) writer(word uint32) int32 {
	if m := bl.acc[word]; m >= 0 && m&soleWritten != 0 {
		return m &^ soleWritten
	}
	return -1
}

// logRecorder collects a golden launch's block log. It is the
// global-memory fence of the recording runs, allowing every access. The
// first run records the issue log, the access marks and the write
// seqs; on a single-writer launch with foreign reads, a second run,
// with the writers known, records the foreign reads.
type logRecorder struct {
	g       *mem.Global
	cur     int32  // block issuing now
	seq     uint32 // issues so far
	all     []recEntry
	acc     []int32
	rd      []uint64
	multi   bool // a word has two writer blocks
	foreign bool // a block accesses a word another block writes
	wide    bool // a pc or warp index does not fit a logEntry
	// Per word: one past the seq of its first write, and of its last
	// access; 0 when there is none.
	first, last []uint32

	second bool
	frd    []foreignRead
	max    int      // cap of frd
	over   bool     // a foreign read past the cap
	wrote  []uint64 // per word, set once its writer stored it
}

type recEntry struct {
	cta   int32
	warp  uint16
	pc    uint16
	lanes uint8
}

func (r *logRecorder) issue(w *warpState, pc int32) {
	r.cur = int32(w.block.cta)
	r.seq++
	if r.second {
		return
	}
	if pc > 0xffff || w.widx > 0xffff {
		r.wide = true
	}
	r.all = append(r.all, recEntry{cta: r.cur, warp: uint16(w.widx), pc: uint16(pc)})
}

// executed notes the lanes the current non-control issue executes.
func (r *logRecorder) executed(lanes int) {
	if !r.second {
		r.all[len(r.all)-1].lanes = uint8(lanes)
	}
}

func (r *logRecorder) Allow(word, n uint32, a mem.Access) bool {
	if r.second {
		r.recordForeign(word, n, a)
		return true
	}
	write := a&mem.Write != 0
	for w := word; w < word+n; w++ {
		r.last[w] = r.seq
		if write && r.first[w] == 0 {
			r.first[w] = r.seq
		}
		m := r.acc[w]
		switch {
		case m == noAccessor:
			m = r.cur
		case m&^soleWritten == r.cur:
		case m >= 0 && m&soleWritten != 0:
			// Another block writes the word.
			if write {
				r.multi = true
			}
			r.foreign = true
		case write:
			// Only other blocks read the word so far: cur writes it.
			m = r.cur
			r.foreign = true
		default:
			m = manyReaders
		}
		if write && m == r.cur {
			m |= soleWritten
		}
		r.acc[w] = m
		if a&mem.Read != 0 && r.rd != nil {
			r.rd[w] |= 1 << (r.cur & 63)
		}
	}
	return true
}

// recordForeign notes the foreign reads of an access in the second run,
// once per word and issue, with the value the load reads.
func (r *logRecorder) recordForeign(word, n uint32, a mem.Access) {
	seq := r.seq - 1
	for w := word; w < word+n; w++ {
		m := r.acc[w]
		if m < 0 || m&soleWritten == 0 {
			continue
		}
		if m&^soleWritten == r.cur {
			if a&mem.Write != 0 {
				r.wrote[w/64] |= 1 << (w % 64)
			}
			continue
		}
		dup := false
		for k := len(r.frd) - 1; k >= 0 && r.frd[k].seq == seq && !dup; k-- {
			dup = r.frd[k].word == w
		}
		switch {
		case dup:
		case len(r.frd) == r.max:
			r.over = true
		default:
			r.frd = append(r.frd, foreignRead{seq: seq, word: w, val: r.g.Word(w * 4), reader: r.cur,
				written: r.wrote[w/64]>>(w%64)&1 != 0})
		}
	}
}

// run re-simulates the launch from its golden boundary with the
// recorder as the engine's log hook and the memory's fence, and returns
// the launch's block count.
func (r *logRecorder) run(cfg Config, boundary *LaunchImage) (int, error) {
	e, err := newEngine(cfg, r.g, false)
	if err != nil {
		return 0, err
	}
	e.logRec = r
	r.g.Restore(boundary.Mem)
	r.g.SetFence(r)
	res := e.run()
	blocks := e.totalBlock
	e.release()
	if res.Outcome != OutcomeOK {
		return 0, fmt.Errorf("sim: recording %s: golden launch raised %s", cfg.Program.Name, res.DUEReason())
	}
	return blocks, nil
}

// RecordBlockLog re-simulates a launch from its golden boundary (the
// first image of its RunGolden sequence), with recording on, and
// returns its BlockLog. cfg must describe the golden launch, and
// warpInstrs is its golden warp-instruction count (Profile.WarpInstrs),
// which sizes the log. readers asks for the reader masks: only a launch
// that follows another needs them, to find the blocks its dirty input
// reaches. A launch whose blocks read each other's words is simulated
// twice: the foreign reads are recorded once every word's writer is
// known.
func RecordBlockLog(cfg Config, boundary *LaunchImage, warpInstrs uint64, readers bool) (*BlockLog, error) {
	words := boundary.Mem.AllocatedBytes() / 4
	rec := &logRecorder{g: mem.NewGlobal(4 * words), all: make([]recEntry, 0, warpInstrs), acc: make([]int32, words),
		first: make([]uint32, words), last: make([]uint32, words)}
	if readers {
		rec.rd = make([]uint64, words)
	}
	for i := range rec.acc {
		rec.acc[i] = noAccessor
	}
	blocks, err := rec.run(cfg, boundary)
	if err != nil {
		return nil, err
	}
	bl := &BlockLog{blocks: blocks}
	if rec.multi || rec.wide || len(rec.all) > math.MaxUint32 {
		return bl, nil
	}
	if rec.foreign {
		rec.second, rec.seq = true, 0
		rec.max = maxForeignReads(warpInstrs)
		rec.wrote = make([]uint64, words/64+1)
		if _, err := rec.run(cfg, boundary); err != nil {
			return nil, err
		}
		if rec.over {
			return bl, nil
		}
		bl.frd = append([]foreignRead(nil), rec.frd...)
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
	bl.lanes = make([]uint8, len(rec.all))
	bl.order = make([]int32, len(rec.all))
	fill := make([]int32, blocks)
	copy(fill, bl.off)
	for seq, r := range rec.all {
		k := fill[r.cta]
		bl.ent[k] = logEntry{seq: uint32(seq), warp: r.warp, pc: r.pc}
		bl.lanes[k] = r.lanes
		bl.order[seq] = k
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
	bl.wFirst, bl.wLast = make([]uint32, nw), make([]uint32, nw)
	copy(fill, bl.wOff)
	for w, m := range bl.acc {
		if m >= 0 && m&soleWritten != 0 {
			c := m &^ soleWritten
			k := fill[c]
			bl.wList[k], bl.wFirst[k], bl.wLast[k] = uint32(w), rec.first[w], rec.last[w]
			fill[c]++
		}
	}
	return bl, nil
}

// fireSite is where an operation fault fires in golden: the block, the
// issue's position in the block's log, and the filtered trigger clock
// before the issue.
type fireSite struct {
	cta   int
	pos   int32
	clock uint64
}

// locateFire maps the plan's filtered trigger to the issue it fires on,
// walking the golden issue order forward from the image (the plan's
// start image). ok is false when the launch ends first.
func (bl *BlockLog) locateFire(dec []decoded, img *LaunchImage, plan *FaultPlan) (fireSite, bool) {
	clock := img.FilteredOps(plan.Filter)
	for s := img.warpInstrs; s < uint64(len(bl.order)); s++ {
		k := bl.order[s]
		n := uint64(bl.lanes[k])
		if n == 0 || !plan.matches(dec[bl.ent[k].pc].op) {
			continue
		}
		if plan.TriggerIndex < clock+n {
			c := sort.Search(bl.blocks, func(c int) bool { return bl.off[c+1] > k })
			return fireSite{cta: c, pos: k - bl.off[c], clock: clock}, true
		}
		clock += n
	}
	return fireSite{}, false
}

// filteredLanes sums the lanes that advance the plan's trigger clock
// over block c's log positions [from, to).
func (bl *BlockLog) filteredLanes(dec []decoded, c int, from, to int32, plan *FaultPlan) uint64 {
	var n uint64
	log := bl.entries(c)
	for p := from; p < to; p++ {
		if l := bl.lanes[bl.off[c]+p]; l > 0 && plan.matches(dec[log[p].pc].op) {
			n += uint64(l)
		}
	}
	return n
}

// logScratch is a Trial's log-mode state, reusable across launches and
// trials: the block fence and the executor's cursors. stores collects
// the word index of every global store the replayed blocks made
// (repeats included); past lists the other blocks' written words a lone
// replayed block has loaded or stored past their last golden access,
// and resolved counts the accesses the fence resolved from write seqs.
// arm resets them.
type logScratch struct {
	stores   []uint32
	past     []uint32
	resolved int

	fence  blockFence
	blocks []*blockState
	pos    []int32
	fr     int // the next foreign read rule 3 vets
}

// blockFence confines the global accesses of the block replaying now,
// the issue of seq. lone reports that one block replays, so the others
// run golden and its accesses of their written words resolve from the
// write seqs; otherwise several blocks replay one after another, and
// none may see another's stores. next is the golden memory after the
// launch.
type blockFence struct {
	ls      *logScratch
	bl      *BlockLog
	g       *mem.Global
	next    *mem.Snapshot
	block   int32
	seq     uint32
	lone    bool
	tripped bool
}

func (f *blockFence) Allow(word, n uint32, a mem.Access) bool {
	acc := f.bl.acc
	for w := word; w < word+n; w++ {
		if int(w) >= len(acc) {
			return f.trip()
		}
		m := acc[w]
		own := m >= 0 && m&^soleWritten == f.block
		switch {
		case a&mem.Write != 0:
			switch {
			case m == noAccessor || own:
				// Serial blocks store only to words they write in golden.
				if !f.lone && (m < 0 || m&soleWritten == 0) {
					return f.trip()
				}
			case m < 0 || m&soleWritten == 0 || !f.resolveStore(m&^soleWritten, w):
				return f.trip()
			}
			f.ls.stores = append(f.ls.stores, w)
		case own || m < 0 || m&soleWritten == 0:
			// No other block writes the word: memory holds what the full
			// run reads.
		default:
			if fr := f.bl.foreignRead(f.seq, f.block, w); fr != nil {
				if fr.written {
					f.g.SetWord(w*4, fr.val)
				}
			} else if !f.resolveLoad(m&^soleWritten, w) {
				return f.trip()
			}
		}
	}
	return true
}

// resolveStore reports whether a lone block's store or atomic to word,
// which block c writes in golden, stands: it comes at or past the
// word's last golden access, so no other block accesses the word again
// in the full run. Memory first holds what the full run holds there
// (pastAccess), which an atomic reads.
func (f *blockFence) resolveStore(c int32, word uint32) bool {
	if !f.lone {
		return false
	}
	if _, last := f.bl.writeSeqs(c, word); f.seq+1 < last {
		return false
	}
	f.pastAccess(word)
	return true
}

// resolveLoad reports whether a lone block's unrecorded load of word,
// which block c writes in golden, reads what the full run reads, and
// makes memory hold it. Before the word's first golden write memory
// holds the launch-start value, as in the full run: the block started
// from an image at or before the load, and every change the replay
// makes to the word comes after its first golden write. At or past its
// last golden access memory is made to hold what the full run holds
// (pastAccess). In between it trips.
func (f *blockFence) resolveLoad(c int32, word uint32) bool {
	if !f.lone {
		return false
	}
	first, last := f.bl.writeSeqs(c, word)
	switch {
	case f.seq+1 < first:
		f.ls.resolved++
	case f.seq+1 < last:
		return false
	default:
		f.pastAccess(word)
	}
	return true
}

// pastAccess makes memory hold what the full run holds at an access of
// the lone block to word, another block's written word, at or past its
// last golden access: the next boundary's value, the writer's last
// golden store, unless the block has loaded or stored the word before
// in this replay, and then what memory already holds.
func (f *blockFence) pastAccess(word uint32) {
	if !slices.Contains(f.ls.past, word) {
		f.g.SetWord(word*4, f.next.Word(word*4))
		f.ls.past = append(f.ls.past, word)
	}
	f.ls.resolved++
}

func (f *blockFence) trip() bool {
	f.tripped = true
	return false
}

// arm makes the scratch engine e's log-mode state for a replay of bl's
// launch, whose golden memory after it is next, reset, and installs the
// fence on e's memory.
func (ls *logScratch) arm(e *engine, bl *BlockLog, next *mem.Snapshot) {
	e.lg = ls
	ls.stores, ls.past, ls.resolved = ls.stores[:0], ls.past[:0], 0
	ls.fence = blockFence{ls: ls, bl: bl, g: e.glob, next: next}
	ls.blocks, ls.pos = ls.blocks[:0], ls.pos[:0]
	e.glob.SetFence(&ls.fence)
}

// add makes blk a replayed block, issuing next its log entry pos.
func (ls *logScratch) add(blk *blockState, pos int32) {
	ls.blocks = append(ls.blocks, blk)
	ls.pos = append(ls.pos, pos)
}

// disarm drops the scratch's references into the engine's storage and
// the launch's log, so a pooled scratch pins neither.
func (ls *logScratch) disarm() {
	clear(ls.blocks)
	ls.blocks = ls.blocks[:0]
	ls.fence = blockFence{}
}

// pending reports whether a foreign read before seq awaits vetReads; it
// is the inline test the executor makes before every issue.
func (ls *logScratch) pending(bl *BlockLog, seq uint32) bool {
	return ls.fr < len(bl.frd) && bl.frd[ls.fr].seq < seq
}

// vetReads checks certificate rule 3 for the foreign reads not yet
// vetted whose seq precedes seq: a word the replayed block writes must
// hold the value another block's read of it saw in golden. Only a lone
// block replays in a launch with foreign reads, and a foreign read's
// reader is never the word's writer, so that reader does not replay.
func (ls *logScratch) vetReads(bl *BlockLog, g *mem.Global, seq uint32) bool {
	c := int32(ls.blocks[0].cta)
	for ; ls.fr < len(bl.frd) && bl.frd[ls.fr].seq < seq; ls.fr++ {
		if fr := &bl.frd[ls.fr]; bl.writer(fr.word) == c && g.Word(fr.word*4) != fr.val {
			return false
		}
	}
	return true
}

// runLog runs the scratch's blocks one after another, each from its
// cursor to the end of its log, checks the certificate, and disarms the
// scratch; from is the seq the replay starts at, so the foreign reads
// before it are not vetted. Several blocks replay only in a launch
// without foreign reads, so only a lone block has foreign reads to vet
// as it goes. It returns LogOK when every block reached the end of its
// log with every warp where golden ends, or when a lone replayed block
// raised a DUE with every warp's next pc still golden (the DUE is then
// the launch's outcome); otherwise the reason to fall back.
func (e *engine) runLog(bl *BlockLog, from uint32) LogFallback {
	ls := e.lg
	defer ls.disarm()
	ls.fr = bl.readsFrom(from)
	ls.fence.lone = len(ls.blocks) == 1
	// No block may become resident behind a retiring one.
	e.nextBlock = e.totalBlock
	var slots [device.UnitCount]int
	for u := range slots {
		slots[u] = 1 << 62
	}
	for i, blk := range ls.blocks {
		log := bl.entries(blk.cta)
		for p := int(ls.pos[i]); p < len(log); p++ {
			if ls.pending(bl, log[p].seq) && !ls.vetReads(bl, e.glob, log[p].seq) {
				return LogForeignRead
			}
			if fb, stop := e.logIssue(blk, log[p], slots[:]); stop {
				switch {
				case fb != LogOK:
				case !ls.fence.lone:
					fb = LogMultiDUE
				case !pendingGolden(blk, log[p+1:], blk.warps[log[p].warp]):
					fb = LogPCMismatch
				}
				return fb
			}
		}
	}
	// Rule 3 for the foreign reads left, and every warp done.
	if !ls.vetReads(bl, e.glob, math.MaxUint32) {
		return LogForeignRead
	}
	for _, blk := range ls.blocks {
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
	e.lg.fence.block, e.lg.fence.seq = int32(blk.cta), ent.seq
	e.issue(&e.st.logSM, w, top, slots)
	switch {
	case e.dueMode == DUENone:
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

// replayFaulted runs an operation fault's launch in log mode from the
// plan's start image img: only the block the fault fires in, alone,
// from its state in the image (its first instruction if it was not yet
// resident), through the fire to its end. Memory is the image's. The
// filtered trigger clock is seeded so that the fault fires on the issue
// and lane it fires on under the cycle engine. blk is nil, and nothing
// ran, when the plan's trigger lies past the launch's last issue. The
// error reports a log that disagrees with the run it recorded.
func (e *engine) replayFaulted(bl *BlockLog, ls *logScratch, img *LaunchImage, next *mem.Snapshot) (blk *blockState, fb LogFallback, err error) {
	site, ok := bl.locateFire(e.dec, img, e.fault)
	if !ok {
		return nil, LogOK, nil
	}
	e.glob.Restore(img.Mem)
	ls.arm(e, bl, next)
	for i := range img.blocks {
		if img.blocks[i].cta == site.cta {
			blk = e.materializeBlock(&img.blocks[i])
			e.liveBlocks++
			break
		}
	}
	if blk == nil {
		blk = e.startBlock(site.cta)
	}
	e.filteredOps = site.clock - bl.filteredLanes(e.dec, site.cta, blk.issued, site.pos, e.fault)
	ls.add(blk, blk.issued)
	fb = e.runLog(bl, uint32(img.warpInstrs))
	// The prefix replays golden, so the fault fires exactly there; the
	// check guards the log itself.
	if !e.fired.Fired || e.fired.cta != site.cta || e.fired.issue != site.pos {
		return nil, fb, fmt.Errorf("sim: block log of %s disagrees with golden at block %d issue %d", e.prog.Name, site.cta, site.pos)
	}
	return blk, fb, nil
}
