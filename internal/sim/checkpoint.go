// Checkpointing: the golden run of a launch (RunGolden) returns one
// ordered checkpoint sequence. Its first entry is the launch boundary,
// an image with nothing launched and nothing resident: global memory
// before the launch. The rest are full-state sub-launch images captured
// every so many lane-operations. The fault launch of a trial
// (Trial.Launch) (a) starts from the latest checkpoint that provably
// precedes its trigger, and (b) once its fault has fired, compares
// itself against the golden image captured at the same cycle and stops
// as soon as it matches. Past the end of the launch, the trial diffs
// global memory against the next launch's boundary instead. On a
// single-writer launch an operation fault's replay runs only the
// faulted block, in log mode, instead of rejoining (blocklog.go).
//
// Both directions are exact, not heuristic. The engine is deterministic,
// so a replay whose entire future-relevant state (register file,
// predicates, shared and global memory, divergence stacks, scoreboard,
// scheduler cursors, residency lists) equals the golden image at the
// same cycle replays the golden suffix bit for bit. Start selection is
// clock-safe: a checkpoint is a valid start only if the fault's trigger
// clock at capture time had not yet reached the trigger, which the
// image's lane-op count (storage faults) or per-op counts (filtered op
// faults) decide without approximation.
package sim

import (
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// warpImage is the frozen state of one warp.
type warpImage struct {
	stack         []simtEntry
	exited        uint32
	atBar         bool
	pendingReconv int32
	regReady      []int64
	predReady     [8]int64
	done          bool
}

// blockImage is the frozen state of one resident CTA, warps included
// (indexed by warp index within the block).
type blockImage struct {
	cta        int
	ctaX, ctaY int
	threads    int
	nregs      int

	regs   []uint32
	preds  []uint32 // per-warp predicate lane masks, as blockState.preds
	shared []uint32

	liveWarps  int
	barWaiting int
	issued     int32
	warps      []warpImage
}

// warpRef names a warp by resident block (index into LaunchImage.blocks)
// and warp index, preserving the SM residency order.
type warpRef struct {
	block int
	widx  int
}

// smImage is the frozen scheduler state of one SM.
type smImage struct {
	lastPick  []int
	liveWarps int
	warps     []warpRef
}

// LaunchImage is one checkpoint of a golden launch. Mem is the
// global-memory snapshot at capture time; Cycle and LaneOps place the
// image on the launch's timing and trigger clocks. The launch boundary
// is the image with nothing launched (all counters zero, no blocks):
// restoring it restores memory, and the run then makes the initial
// residency wave resident as a fresh launch does.
type LaunchImage struct {
	Cycle   int64
	LaneOps uint64
	Mem     *mem.Snapshot

	perOpLane        [isa.OpCount]uint64
	warpInstrs       uint64
	activeWarpCycles uint64
	smCycles         uint64
	smsUsed          int
	ctrlOps          uint64
	loadResidency    uint64
	divResidency     uint64

	nextBlock  int
	liveBlocks int
	blocks     []blockImage
	sms        []smImage
}

// The checkpoint policy of RunGolden: a sub-launch image every
// imageInterval lane-ops, at most maxImages per launch. When a launch
// outruns the cap, every other image is dropped and the interval
// doubles, so arbitrarily long launches keep a bounded set of images at
// self-scaling spacing. imageStateBytes is the allowance for an image's
// frozen block and SM state on top of its memory snapshot; the
// recording budget and FootprintBytes both charge it.
const (
	imageInterval   = 32768
	maxImages       = 24
	imageStateBytes = 64 << 10
)

// FilteredOps reconstructs the filtered lane-op trigger clock at capture
// time for an arbitrary plan filter. The golden run records no filtered
// count of its own (it has no fault plan), but the per-op totals
// determine it exactly: the filtered clock advances by every non-control
// lane-op whose opcode passes the filter.
func (img *LaunchImage) FilteredOps(filter func(op isa.Op) bool) uint64 {
	var n uint64
	for op := 0; op < isa.OpCount; op++ {
		o := isa.Op(op)
		if o.IsControl() {
			continue
		}
		if filter == nil || filter(o) {
			n += img.perOpLane[op]
		}
	}
	return n
}

// FootprintBytes approximates the image's retained memory: its global
// snapshot, plus the block/SM state allowance for a sub-launch image.
// The launch boundary holds no block state.
func (img *LaunchImage) FootprintBytes() int {
	if img.nextBlock == 0 {
		return img.Mem.SizeBytes()
	}
	return img.Mem.SizeBytes() + imageStateBytes
}

// startImage returns the index of the latest checkpoint whose trigger
// clock had not yet reached the plan's trigger at capture time: the
// furthest point the replay can start from without missing its own
// fault. The launch boundary (index 0, both clocks zero) always
// qualifies. Storage faults trigger on the unfiltered lane-op clock;
// operation faults on the plan's filtered clock.
func startImage(seq []*LaunchImage, plan *FaultPlan) int {
	start := 0
	for i, img := range seq {
		var clock uint64
		switch plan.Kind {
		case FaultRFBit, FaultSharedBit, FaultGlobalBit:
			clock = img.LaneOps
		default:
			clock = img.FilteredOps(plan.Filter)
		}
		if clock <= plan.TriggerIndex {
			start = i
		}
	}
	return start
}

// recorder accumulates a golden run's sub-launch images under the
// checkpoint policy above, with the image cap the memory budget allows.
type recorder struct {
	interval uint64 // lane-ops between images
	max      int
	images   []*LaunchImage

	nextAt uint64
}

func (r *recorder) add(img *LaunchImage) {
	r.images = append(r.images, img)
	r.nextAt = img.LaneOps + r.interval
	if len(r.images) > r.max {
		kept := r.images[:0]
		for i, im := range r.images {
			if i%2 == 0 {
				kept = append(kept, im)
			}
		}
		for i := len(kept); i < len(r.images); i++ {
			r.images[i] = nil
		}
		r.images = kept
		r.interval *= 2
		r.nextAt = r.images[len(r.images)-1].LaneOps + r.interval
	}
}

// capture freezes the engine's full state into a LaunchImage. Blocks are
// enumerated in SM residency order (first appearance), which the match
// path reproduces, so block indices are comparable across runs.
func (e *engine) capture() *LaunchImage {
	img := &LaunchImage{
		Cycle:            e.cycle,
		LaneOps:          e.laneOps,
		Mem:              e.glob.Snapshot(),
		perOpLane:        e.perOpLane,
		warpInstrs:       e.warpInstrs,
		activeWarpCycles: e.activeWarpCycles,
		smCycles:         e.smCycles,
		smsUsed:          e.smsUsed,
		ctrlOps:          e.ctrlOps,
		loadResidency:    e.loadResidency,
		divResidency:     e.divResidency,
		nextBlock:        e.nextBlock,
		liveBlocks:       e.liveBlocks,
		sms:              make([]smImage, len(e.sms)),
	}
	idx := make(map[*blockState]int)
	for s := range e.sms {
		sm := &e.sms[s]
		si := &img.sms[s]
		si.lastPick = append([]int(nil), sm.lastPick...)
		si.liveWarps = sm.liveWarps
		si.warps = make([]warpRef, len(sm.warps))
		for j, w := range sm.warps {
			bi, ok := idx[w.block]
			if !ok {
				bi = len(img.blocks)
				idx[w.block] = bi
				img.blocks = append(img.blocks, captureBlock(w.block))
			}
			si.warps[j] = warpRef{block: bi, widx: w.widx}
		}
	}
	return img
}

func captureBlock(b *blockState) blockImage {
	bi := blockImage{
		cta:        b.cta,
		ctaX:       b.ctaX,
		ctaY:       b.ctaY,
		threads:    b.threads,
		nregs:      b.nregs,
		regs:       append([]uint32(nil), b.regs...),
		preds:      append([]uint32(nil), b.preds...),
		shared:     b.shared.SnapshotWords(),
		liveWarps:  b.liveWarps,
		barWaiting: b.barWaiting,
		issued:     b.issued,
		warps:      make([]warpImage, len(b.warps)),
	}
	for i, w := range b.warps {
		bi.warps[i] = warpImage{
			stack:         append([]simtEntry(nil), w.stack...),
			exited:        w.exited,
			atBar:         w.atBar,
			pendingReconv: w.pendingReconv,
			regReady:      append([]int64(nil), w.regReady...),
			predReady:     w.predReady,
			done:          w.done,
		}
	}
	return bi
}

// restoreImage rewinds a fresh engine (no blocks launched) to the
// image's state, including global memory and the trigger clocks. A
// launch boundary restores memory only; run then launches the initial
// residency wave. The image must come from a launch of the same
// geometry on the same device. Block and warp state is carved from the
// engine's arenas and the image is only read, never aliased: a recycled
// engine's storage must not reach the image shared by every replay of
// the launch.
func (e *engine) restoreImage(img *LaunchImage) {
	e.cycle = img.Cycle
	e.laneOps = img.LaneOps
	e.perOpLane = img.perOpLane
	e.warpInstrs = img.warpInstrs
	e.activeWarpCycles = img.activeWarpCycles
	e.smCycles = img.smCycles
	e.smsUsed = img.smsUsed
	e.ctrlOps = img.ctrlOps
	e.loadResidency = img.loadResidency
	e.divResidency = img.divResidency
	e.nextBlock = img.nextBlock
	e.liveBlocks = img.liveBlocks
	e.filteredOps = img.FilteredOps(e.fault.Filter)
	e.glob.Restore(img.Mem)

	blocks := e.st.blkScratch[:0]
	for i := range img.blocks {
		blocks = append(blocks, e.materializeBlock(&img.blocks[i]))
	}
	e.st.blkScratch = blocks
	for s := range img.sms {
		si := &img.sms[s]
		sm := &e.sms[s]
		copy(sm.lastPick, si.lastPick)
		sm.liveWarps = si.liveWarps
		for _, ref := range si.warps {
			sm.warps = append(sm.warps, blocks[ref.block].warps[ref.widx])
		}
	}
}

// materializeBlock carves a block from the launch arenas and fills it
// with the image's state. Scheduling caches (stallUntil, the SM quiet
// caches) restart cold: they are performance state, not architectural
// state, so images never carry them.
func (e *engine) materializeBlock(bi *blockImage) *blockState {
	blk := e.carveBlock(bi.cta)
	copy(blk.regs, bi.regs)
	copy(blk.preds, bi.preds)
	blk.shared.RestoreWords(bi.shared)
	blk.liveWarps = bi.liveWarps
	blk.barWaiting = bi.barWaiting
	blk.issued = bi.issued
	for wi, w := range blk.warps {
		img := &bi.warps[wi]
		if len(img.stack) > cap(w.stack) {
			w.stack = e.st.simt.carve(len(img.stack), 1024)[:0]
		}
		w.stack = append(w.stack, img.stack...)
		w.exited = img.exited
		w.atBar = img.atBar
		w.pendingReconv = img.pendingReconv
		copy(w.regReady, img.regReady)
		w.predReady = img.predReady
		w.done = img.done
		// maxStamp is derived state; rebuild it from the stamps so the
		// restored warp regains the readiness quick-pass.
		for _, t := range w.regReady {
			w.maxStamp = max(w.maxStamp, t)
		}
		for _, t := range w.predReady {
			w.maxStamp = max(w.maxStamp, t)
		}
	}
	return blk
}

// tryRejoin advances past golden images the replay has outrun and, when
// an image was captured at exactly this cycle, compares the replay's
// full state against it; a match means the remaining execution replays
// the golden run bit for bit, so the engine stops with RejoinedGolden.
// It returns true when the run should stop.
func (e *engine) tryRejoin() bool {
	for e.gIdx < len(e.golden) && e.golden[e.gIdx].Cycle < e.cycle {
		e.gIdx++
	}
	if e.gIdx >= len(e.golden) || e.golden[e.gIdx].Cycle != e.cycle {
		return false
	}
	img := e.golden[e.gIdx]
	e.gIdx++
	if e.matchesImage(img) {
		e.rejoined = true
		return true
	}
	return false
}

// stampEquiv compares two scoreboard stamps for future-equivalence at
// the current cycle: stamps in the past never influence scheduling
// again, so any two of them are interchangeable.
func stampEquiv(a, b, now int64) bool {
	return a == b || (a <= now && b <= now)
}

// matchesImage reports whether the replay's entire future-relevant state
// equals the golden image. Profile counters are deliberately excluded:
// once the fault has fired, the trigger clocks are inert (armFault
// short-circuits) and counters do not influence execution.
func (e *engine) matchesImage(img *LaunchImage) bool {
	if e.nextBlock != img.nextBlock || e.liveBlocks != img.liveBlocks ||
		len(e.sms) != len(img.sms) {
		return false
	}
	now := e.cycle
	// Index blocks by first-encounter order, exactly as capture() did;
	// a block's warps sit contiguously in its SM's list, so the
	// last-block check resolves almost every warp and the linear
	// fallback keeps the assignment exact regardless. Each block's
	// state is compared at first encounter: a faulted block that
	// diverged (the common mismatch) fails the whole compare before
	// the remaining topology, blocks, or memory are walked. The
	// scratch slice lives in the launch store — compares run per crossed
	// image, and a map here was measurable in replay profiles.
	blocks := e.st.blkScratch[:0]
	defer func() { e.st.blkScratch = blocks }()
	for s := range e.sms {
		sm := &e.sms[s]
		si := &img.sms[s]
		if sm.liveWarps != si.liveWarps || len(sm.warps) != len(si.warps) ||
			len(sm.lastPick) != len(si.lastPick) {
			return false
		}
		for k := range sm.lastPick {
			if sm.lastPick[k] != si.lastPick[k] {
				return false
			}
		}
		for j, w := range sm.warps {
			bi := -1
			if n := len(blocks); n > 0 && blocks[n-1] == w.block {
				bi = n - 1
			} else {
				for k := range blocks {
					if blocks[k] == w.block {
						bi = k
						break
					}
				}
				if bi == -1 {
					bi = len(blocks)
					if bi >= len(img.blocks) {
						return false
					}
					blocks = append(blocks, w.block)
					if !w.block.equalImage(&img.blocks[bi], now) {
						return false
					}
				}
			}
			if si.warps[j] != (warpRef{block: bi, widx: w.widx}) {
				return false
			}
		}
	}
	if len(blocks) != len(img.blocks) {
		return false
	}
	// Global memory last: it is the largest compare by far.
	return e.glob.EqualSnapshot(img.Mem)
}

func (b *blockState) equalImage(bi *blockImage, now int64) bool {
	if b.cta != bi.cta || b.threads != bi.threads || b.nregs != bi.nregs ||
		b.liveWarps != bi.liveWarps || b.barWaiting != bi.barWaiting ||
		len(b.warps) != len(bi.warps) {
		return false
	}
	for wi := range b.warps {
		w, img := b.warps[wi], &bi.warps[wi]
		if w.exited != img.exited || w.atBar != img.atBar ||
			w.pendingReconv != img.pendingReconv || w.done != img.done ||
			len(w.stack) != len(img.stack) {
			return false
		}
		for k := range w.stack {
			if w.stack[k] != img.stack[k] {
				return false
			}
		}
		for r := range w.regReady {
			if !stampEquiv(w.regReady[r], img.regReady[r], now) {
				return false
			}
		}
		for p := range w.predReady {
			if !stampEquiv(w.predReady[p], img.predReady[p], now) {
				return false
			}
		}
	}
	for i := range b.regs {
		if b.regs[i] != bi.regs[i] {
			return false
		}
	}
	for i := range b.preds {
		if b.preds[i] != bi.preds[i] {
			return false
		}
	}
	return b.shared.EqualWords(bi.shared)
}
