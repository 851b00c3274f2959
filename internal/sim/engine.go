package sim

import (
	"fmt"
	"math/bits"
	"sync"

	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

const (
	defaultMaxCycles = 50_000_000
	maxSIMTDepth     = 64
)

// simtEntry is one level of the PDOM reconvergence stack.
type simtEntry struct {
	mask uint32
	pc   int32
	rpc  int32 // reconvergence PC; popping happens when pc reaches it
}

// warpState is one warp of a resident block. fullMask has one bit per
// live lane, and every mask the warp holds is a subset of it: the base
// stack entry starts as fullMask, a branch splits an entry's active
// lanes, EXIT adds active lanes to exited, and no fault kind edits a
// mask. So an issue's active mask names only live lanes, and a
// predicate never gains a bit outside fullMask.
type warpState struct {
	block    *blockState
	widx     int // warp index within the block
	base     int // widx*32: first lane's thread index (SoA row offset)
	lanes    int // live lanes (32 except a trailing partial warp)
	fullMask uint32

	stack         []simtEntry
	exited        uint32
	atBar         bool
	pendingReconv int32

	regReady  []int64 // scoreboard: cycle at which each register is ready
	predReady [8]int64

	// stallUntil caches the earliest cycle any scoreboard dependency of
	// the warp's next instruction clears (0 when unknown). The warp's
	// stamps only change when the warp itself issues — which resets the
	// cache — so a stalled warp costs one comparison per probe instead
	// of a full dependency walk. Purely a scheduling cache: it never
	// affects outcomes and is excluded from checkpoint images.
	stallUntil int64

	// maxStamp is an upper bound on every scoreboard stamp of the warp
	// (regReady and predReady). Once the clock passes it, no dependency
	// of any instruction can be pending, so the readiness check skips
	// the wait-list walk entirely. An over-bound is sound — it only
	// costs walks — so issue() raises it whenever it stamps anything
	// and restores recompute it from the stamps. Derived cache, never
	// stored in or compared against checkpoint images.
	maxStamp int64

	done bool
}

// effTop pops exhausted and reconverged entries and returns the active
// one, or nil when the warp has finished.
func (w *warpState) effTop() *simtEntry {
	for len(w.stack) > 0 {
		top := &w.stack[len(w.stack)-1]
		if top.mask&^w.exited == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if top.pc == top.rpc {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return top
	}
	return nil
}

type blockState struct {
	cta        int // linear CTA index
	ctaX, ctaY int
	threads    int
	nregs      int

	// Struct-of-arrays architectural state: register r of thread t lives
	// at regs[r*threads+t], so a warp's view of one register is a
	// contiguous 32-element slice. Predicate p of warp w is the lane mask
	// preds[w*numPreds+p]: bit l holds lane l's value.
	regs   []uint32
	preds  []uint32
	shared mem.Shared

	warps      []*warpState
	liveWarps  int
	barWaiting int

	// issued counts the warp-instructions the block has issued: its
	// position in its golden issue log (blocklog.go). Images carry it.
	issued int32
}

// regRow returns the contiguous lane view of one register for a warp.
func (b *blockState) regRow(r isa.Reg, base, lanes int) []uint32 {
	off := int(r)*b.threads + base
	return b.regs[off : off+lanes]
}

// numPreds is the predicate file of a thread: P0..P6 and PT.
const numPreds = int(isa.PT) + 1

// pred returns the warp's lane mask of predicate p.
func (w *warpState) pred(p isa.PredReg) *uint32 {
	return &w.block.preds[w.widx*numPreds+int(p)]
}

// setPred writes res to predicate p on the active lanes; the other
// lanes keep their bits.
func (w *warpState) setPred(p isa.PredReg, active, res uint32) {
	pm := w.pred(p)
	*pm = *pm&^active | res
}

type smState struct {
	warps     []*warpState // resident warps, in residency order
	liveWarps int
	lastPick  []int // per-scheduler round-robin cursor

	// quietUntil caches the earliest cycle any resident warp can issue
	// after a scan found the whole SM stalled; until then the per-cycle
	// scheduler scan is skipped. Warp stamps only move when a warp of
	// this SM issues (impossible while skipped) and new residents reset
	// the cache, so the skip is scheduling-exact. Like stallUntil, this
	// is a cache, not architectural state: images neither store nor
	// compare it.
	quietUntil int64

	// schedQuiet is the per-scheduler analogue of quietUntil: entry k
	// caches the earliest cycle any warp of stride class k (wi mod
	// SchedulersPerSM) can issue, set when a scan of the class found
	// every live, unbarriered warp data-stalled. Stamps of a skipped
	// class cannot move (its warps are not issuing), so the cache only
	// goes stale on events that change class membership or wake
	// excluded warps: block launch, retirement compaction, and barrier
	// release — each zeros the whole array. Like the other two caches
	// this never enters images or state comparison.
	schedQuiet []int64
}

// wakeSchedulers invalidates every per-scheduler quiet cache; called
// whenever warps join, leave, or un-barrier on the SM.
func (sm *smState) wakeSchedulers() {
	for i := range sm.schedQuiet {
		sm.schedQuiet[i] = 0
	}
}

// quiet computes the earliest cycle any warp of a fully stalled SM can
// issue again: the minimum stall cache over live, unbarriered warps. A
// probe-able warp (stall cache expired, e.g. it was issue-slot-blocked)
// makes the SM unskippable and returns 0.
func (sm *smState) quiet(cycle int64) int64 {
	q := int64(1) << 62
	for _, w := range sm.warps {
		if w.done || w.atBar {
			continue
		}
		if w.stallUntil <= cycle {
			return 0
		}
		if w.stallUntil < q {
			q = w.stallUntil
		}
	}
	return q
}

type engine struct {
	cfg  Config
	dev  *device.Device
	prog *isa.Program
	glob *mem.Global

	dec []decoded
	occ device.Occupancy

	sms        []smState
	nextBlock  int
	totalBlock int
	liveBlocks int

	cycle     int64
	maxCycles int64

	fault *FaultPlan
	// faultLane caches, for the instruction currently in exec, the lane
	// the armed fault targets (noFault when none); memory and MMA
	// handlers read it instead of taking a parameter per lane.
	faultLane int
	// redir and redirIn hold the instruction a register-index fault
	// re-targets (redirect), kept here so the faulted issue allocates
	// nothing.
	redir   decoded
	redirIn isa.Instr

	// Dynamic counters. laneOps is the unfiltered lane-operation clock;
	// filteredOps advances only on ops matching the fault plan's filter.
	laneOps     uint64
	filteredOps uint64
	perOpLane   [isa.OpCount]uint64
	warpInstrs  uint64

	activeWarpCycles uint64
	smCycles         uint64
	smsUsed          int

	// Residency counters (Profile.CtrlOps / LoadResidency /
	// DivResidency); recorded unconditionally — they are a handful of
	// integer adds on the issue path.
	ctrlOps       uint64
	loadResidency uint64
	divResidency  uint64

	// Timeline sampling state, nil on a lean engine. tl is
	// the fixed bucket array; bucket width is 1<<tlShift cycles and
	// doubles (folding adjacent pairs) when the launch outruns it. tlCur
	// caches the current cycle's bucket for the issue path.
	tl      []TimelineBucket
	tlShift uint
	tlCur   *TimelineBucket

	// slotBase is the per-unit issue-slot budget, precomputed once and
	// copied into the per-cycle slots array.
	slotBase [device.UnitCount]int

	// schedMask is SchedulersPerSM-1 when the scheduler count is a power
	// of two (every modeled device), letting the per-cycle scan compute
	// stride residues with a mask instead of integer division; -1 falls
	// back to the generic remainder.
	schedMask int

	// lean drops the profile-only accounting from the issue path (per-op
	// lane counts, residency and fetch-redirect counters, the timeline):
	// a Trial's launches and block-log recordings are classified or
	// logged, never profiled.
	lean bool

	// Checkpointing (checkpoint.go). rec records sub-launch images
	// during a golden run (RunGolden); golden/gIdx drive the rejoin
	// cutoff during a fault launch (Trial.Launch): golden holds the images
	// after the replay's start, and once the fault has fired, the
	// replay compares its full state against the golden image captured
	// at the same cycle and stops early on a match.
	rec      *recorder
	golden   []*LaunchImage
	gIdx     int
	rejoined bool

	// Fast-forward bookkeeping: when a whole cycle issues nothing, the
	// engine jumps to the earliest scoreboard-ready time instead of
	// spinning through memory-latency stalls cycle by cycle.
	issuedThisCycle int
	nextReady       int64

	// dueMode is the mechanism of the run's DUE, DUENone until one is
	// raised; due is its detail.
	dueMode DUEMode
	due     dueCause

	// fired is what the fault did (Result.Fire) and, for an operation
	// fault, where it fired: the block, the issue's position in the
	// block's issue log, and the lane (skipWholeInstr for FaultSkip).
	fired struct {
		Fire
		cta   int
		issue int32
		lane  int
	}

	// Block logs (blocklog.go). logRec records a launch's golden issue
	// log and access sets (RecordBlockLog); lg is the state of a
	// log-mode replay (Trial).
	logRec *logRecorder
	lg     *logScratch

	// st is the launch storage this engine carves its block, warp, and
	// SM state from; it travels with the engine through enginePool.
	st *launchStore
}

// launchStore is the engine storage recycled across launches: the
// arenas every block, warp, and scheduler array is carved from, the SM
// array (whose per-SM resident-warp lists keep their backing), and the
// block scratch of image restores and compares. A fault replay of a
// multi-launch code builds one engine per remaining launch, so storage
// made per launch was the replay's dominant cost; recycled, a warmed
// engine allocates nothing to make blocks resident or to restore an
// image.
type launchStore struct {
	u32  arena[uint32] // register files, predicates and shared memory
	i64  arena[int64]
	ints arena[int]
	ws   arena[warpState]
	wp   arena[*warpState]
	blk  arena[blockState]
	simt arena[simtEntry]

	sms []smState

	// blkScratch is the block-collection buffer of restoreImage and
	// matchesImage; image compares run once per crossed golden image on
	// every replay.
	blkScratch []*blockState

	// logSM stands in for the SM while blocks replay in log mode: the
	// issue path retires warps through it, and it never holds a warp.
	logSM smState
}

// enginePool recycles engines together with their launchStore. Run,
// RunGolden, and Trial.Launch return the engine once the Result is built;
// nothing a Result or LaunchImage holds points into recycled storage
// (capture copies, the timeline is allocated per launch, PerOpLane is a
// fresh map).
var enginePool = sync.Pool{New: func() any { return &engine{st: new(launchStore)} }}

// release returns the engine to enginePool, dropping every reference to
// the caller's program, memory, plan, and images so a pooled engine
// retains only its own storage.
func (e *engine) release() {
	if e.glob != nil {
		e.glob.SetFence(nil)
	}
	st := e.st
	*e = engine{st: st}
	enginePool.Put(e)
}

// arena is a chunked slab that launch state is carved from. Chunks
// outlive the launch: reset rewinds the cursor to the first chunk, so a
// recycled engine reuses the storage its earlier launches grew.
type arena[T any] struct {
	chunks [][]T
	ci     int // chunk the cursor is in
	off    int // first uncarved element of chunks[ci]
}

// carve cuts n elements off the arena, moving to the next chunk (or
// growing the arena by a chunk of at least minChunk) when the current
// one cannot hold them. It zeroes exactly the slice it hands out, so
// recycled storage arrives like a fresh make call's.
func (a *arena[T]) carve(n, minChunk int) []T {
	for ; a.ci < len(a.chunks); a.ci, a.off = a.ci+1, 0 {
		if c := a.chunks[a.ci]; a.off+n <= len(c) {
			s := c[a.off : a.off+n : a.off+n]
			a.off += n
			clear(s)
			return s
		}
	}
	a.chunks = append(a.chunks, make([]T, max(n, minChunk)))
	a.off = n
	return a.chunks[a.ci][:n:n]
}

func (a *arena[T]) reset() { a.ci, a.off = 0, 0 }

// reset rewinds every arena and returns the SM array for a device of
// nsm SMs with nsched schedulers each, every SM idle with zeroed cursors
// and caches. Growing the array keeps the existing SMs' warp lists.
func (st *launchStore) reset(nsm, nsched int) []smState {
	st.u32.reset()
	st.i64.reset()
	st.ints.reset()
	st.ws.reset()
	st.wp.reset()
	st.blk.reset()
	st.simt.reset()
	if cap(st.sms) < nsm {
		sms := make([]smState, nsm)
		copy(sms, st.sms[:cap(st.sms)])
		st.sms = sms
	}
	sms := st.sms[:nsm]
	for i := range sms {
		sms[i] = smState{
			warps:      sms[i].warps[:0],
			lastPick:   st.ints.carve(nsched, 1024),
			schedQuiet: st.i64.carve(nsched, 1<<12),
		}
	}
	return sms
}

// newEngine takes an engine from enginePool and sets it up at the
// launch boundary, with no blocks launched; run launches the initial
// residency wave, unless a trial restored a sub-launch image first.
// full records the whole Profile with its Timeline; otherwise the engine
// is lean. The caller releases the engine.
func newEngine(cfg Config, global *mem.Global, full bool) (*engine, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	dev, prog := cfg.Device, cfg.Program
	occ, err := dev.OccupancyFor(cfg.BlockThreads, prog.NumRegs, prog.SharedMem)
	if err != nil {
		return nil, fmt.Errorf("sim: launch of %s: %w", prog.Name, err)
	}
	dec, err := decodeFor(dev, prog)
	if err != nil {
		return nil, err
	}
	e := enginePool.Get().(*engine)
	*e = engine{
		st:         e.st,
		dec:        dec,
		cfg:        cfg,
		dev:        dev,
		prog:       prog,
		glob:       global,
		occ:        occ,
		totalBlock: cfg.GridX * cfg.GridY,
		maxCycles:  cfg.MaxCycles,
		fault:      cfg.Fault,
		faultLane:  noFault,
	}
	if e.maxCycles == 0 {
		e.maxCycles = defaultMaxCycles
	}
	if full {
		e.tl = make([]TimelineBucket, TimelineBuckets)
	}
	e.schedMask = -1
	if s := dev.SchedulersPerSM; s > 0 && s&(s-1) == 0 {
		e.schedMask = s - 1
	}
	for u := range e.slotBase {
		e.slotBase[u] = dev.IssueSlots(device.Unit(u))
	}
	e.lean = !full
	e.sms = e.st.reset(dev.NumSMs, dev.SchedulersPerSM)
	return e, nil
}

// carveBlock carves the block and warp state of one CTA from the launch
// arenas, all zero apart from the geometry: CTA coordinates, register
// and shared-memory sizing, and each warp's index, lanes, and mask. The
// warps' divergence stacks are empty with in-arena room for a few
// levels; deeper nesting falls back to append's reallocation.
func (e *engine) carveBlock(cta int) *blockState {
	st := e.st
	nthreads := e.cfg.BlockThreads
	nwarps := (nthreads + 31) / 32
	nregs := max(e.prog.NumRegs, 1)
	shared := e.prog.SharedMem
	blk := &st.blk.carve(1, 64)[0]
	*blk = blockState{
		cta:       cta,
		ctaX:      cta % e.cfg.GridX,
		ctaY:      cta / e.cfg.GridX,
		threads:   nthreads,
		nregs:     nregs,
		regs:      st.u32.carve(nregs*nthreads, 1<<14),
		preds:     st.u32.carve(numPreds*nwarps, 1<<14),
		shared:    mem.SharedOn(st.u32.carve(mem.SharedWords(shared), 1<<14), shared),
		warps:     st.wp.carve(nwarps, 256),
		liveWarps: nwarps,
	}
	ws := st.ws.carve(nwarps, 128)
	for wi := range ws {
		lanes := 32
		if wi == nwarps-1 && nthreads%32 != 0 {
			lanes = nthreads % 32
		}
		full := uint32(1)<<lanes - 1
		if lanes == 32 {
			full = ^uint32(0)
		}
		w := &ws[wi]
		*w = warpState{
			block:         blk,
			widx:          wi,
			base:          wi * 32,
			lanes:         lanes,
			fullMask:      full,
			stack:         st.simt.carve(4, 1024)[:0],
			pendingReconv: -1,
			regReady:      st.i64.carve(nregs, 1<<12),
		}
		blk.warps[wi] = w
	}
	return blk
}

// launchNextBlock makes the next pending CTA resident on the SM.
func (e *engine) launchNextBlock(sm *smState) {
	if e.nextBlock >= e.totalBlock {
		return
	}
	cta := e.nextBlock
	e.nextBlock++
	blk := e.startBlock(cta)
	sm.warps = append(sm.warps, blk.warps...)
	sm.liveWarps += blk.liveWarps
	sm.quietUntil = 0 // fresh residents: the SM must be scanned again
	sm.wakeSchedulers()
}

// startBlock makes CTA cta live at its first instruction: PT set on
// every lane, each warp's stack holding its full-mask base entry.
func (e *engine) startBlock(cta int) *blockState {
	e.liveBlocks++
	blk := e.carveBlock(cta)
	for _, w := range blk.warps {
		*w.pred(isa.PT) = w.fullMask
		w.stack = append(w.stack, simtEntry{mask: w.fullMask, pc: 0, rpc: -1})
	}
	return blk
}

// retireWarp handles a fully exited warp.
func (e *engine) retireWarp(sm *smState, w *warpState) {
	if w.done {
		return
	}
	w.done = true
	e.issuedThisCycle++ // retirement is forward progress for deadlock detection
	sm.liveWarps--
	blk := w.block
	blk.liveWarps--
	e.checkBarrier(sm, blk)
	if blk.liveWarps == 0 {
		e.liveBlocks--
		// Compact the SM's warp list and backfill with a pending CTA.
		// Compaction renumbers the surviving warps across scheduler
		// stride classes, so the per-class quiet caches are void even
		// when no pending CTA backfills.
		kept := sm.warps[:0]
		for _, ww := range sm.warps {
			if ww.block != blk {
				kept = append(kept, ww)
			}
		}
		sm.warps = kept
		sm.wakeSchedulers()
		e.launchNextBlock(sm)
	}
}

func (e *engine) checkBarrier(sm *smState, blk *blockState) {
	if blk.liveWarps > 0 && blk.barWaiting >= blk.liveWarps {
		for _, w := range blk.warps {
			w.atBar = false
		}
		blk.barWaiting = 0
		// Barriered warps are excluded from the quiet caches; their
		// release makes every cached value for this SM stale.
		sm.wakeSchedulers()
	}
}

// raiseDUE records a detected unrecoverable error: the typed mechanism
// plus its human-readable detail. The mode doubles as the "a DUE is
// pending" sentinel the scheduling loops poll. Only the first raise of
// a run sticks.
func (e *engine) raiseDUE(mode DUEMode, reason string) {
	if e.dueMode == DUENone {
		e.dueMode, e.due = mode, dueCause{text: reason}
	}
}

// raiseAccess raises the illegal-address DUE of a failed global or
// shared access. An AccessError is kept by value and formatted only
// when Result.DUEReason is read: a faulted replay reads only the mode.
func (e *engine) raiseAccess(err error) {
	if e.dueMode != DUENone {
		return
	}
	e.dueMode = DUEIllegalAddress
	if ae, ok := err.(*mem.AccessError); ok {
		e.due = dueCause{access: *ae}
	} else {
		e.due = dueCause{text: err.Error()}
	}
}

// dueCause is the detail of a DUE: a fixed reason, or an illegal
// access.
type dueCause struct {
	text   string
	access mem.AccessError
}

func (c *dueCause) String() string {
	if c.access.Kind != "" {
		return c.access.Error()
	}
	return c.text
}

// run executes the launch to completion or DUE.
func (e *engine) run() *Result {
	e.simulate()
	res := e.result()
	return &res
}

// simulate runs the cycle loop until the launch completes, a DUE is
// raised, or the replay rejoins golden.
func (e *engine) simulate() {
	if e.nextBlock == 0 {
		// At the launch boundary (fresh, or restored by a trial), the
		// initial wave fills SMs round-robin up to the residency limit.
		for slot := 0; slot < e.occ.BlocksPerSM; slot++ {
			for s := range e.sms {
				e.launchNextBlock(&e.sms[s])
			}
		}
		for i := range e.sms {
			if len(e.sms[i].warps) > 0 {
				e.smsUsed++
			}
		}
	}
	var slots [device.UnitCount]int
	for e.liveBlocks > 0 || e.nextBlock < e.totalBlock {
		e.cycle++
		if e.cycle > e.maxCycles {
			e.raiseDUE(DUEHang, "watchdog timeout (hang)")
			break
		}
		e.issuedThisCycle = 0
		e.nextReady = int64(1) << 62
		if e.tl != nil {
			e.tlCur = e.bucketFor(e.cycle)
			e.tlCur.Cycles++
		}
		for s := range e.sms {
			sm := &e.sms[s]
			if sm.liveWarps == 0 {
				continue
			}
			e.smCycles++
			e.activeWarpCycles += uint64(sm.liveWarps)
			if e.tlCur != nil {
				e.tlCur.SMCycles++
				e.tlCur.ActiveWarpCycles += uint64(sm.liveWarps)
			}
			if sm.quietUntil > e.cycle {
				// Every warp here is stalled past this cycle; the cached
				// minimum feeds the fast-forward target exactly as a
				// full scan of the stalled warps would.
				if sm.quietUntil < e.nextReady {
					e.nextReady = sm.quietUntil
				}
				continue
			}
			slots = e.slotBase
			issuedBefore := e.issuedThisCycle
			for sched := 0; sched < e.dev.SchedulersPerSM; sched++ {
				if q := sm.schedQuiet[sched]; q > e.cycle {
					// Every warp of this stride class is stalled past
					// this cycle; the cached minimum feeds the
					// fast-forward target as a scan would.
					if q < e.nextReady {
						e.nextReady = q
					}
					continue
				}
				e.scheduleOne(sm, sched, slots[:])
				if e.dueMode != DUENone {
					break
				}
			}
			if e.dueMode != DUENone {
				break
			}
			if e.issuedThisCycle == issuedBefore {
				sm.quietUntil = sm.quiet(e.cycle)
			}
		}
		if e.dueMode != DUENone {
			break
		}
		if e.issuedThisCycle == 0 && (e.liveBlocks > 0 || e.nextBlock < e.totalBlock) {
			// Every live warp is stalled. Jump to the earliest time the
			// scoreboard unblocks anyone, crediting the skipped cycles to
			// the occupancy accounting.
			if e.nextReady >= int64(1)<<62 {
				e.raiseDUE(DUEHang, "scheduler deadlock: no warp can ever issue")
				break
			}
			skip := e.nextReady - e.cycle - 1
			if skip > 0 {
				if e.cycle+skip > e.maxCycles {
					skip = e.maxCycles - e.cycle
				}
				var liveSMs int
				var liveW uint64
				for s := range e.sms {
					if lw := e.sms[s].liveWarps; lw > 0 {
						e.smCycles += uint64(skip)
						e.activeWarpCycles += uint64(skip) * uint64(lw)
						liveSMs++
						liveW += uint64(lw)
					}
				}
				if e.tl != nil {
					e.tlAddSpan(e.cycle+1, e.cycle+skip, liveSMs, liveW)
				}
				e.cycle += skip
			}
		}
		if e.rec != nil && e.laneOps >= e.rec.nextAt &&
			(e.liveBlocks > 0 || e.nextBlock < e.totalBlock) {
			e.rec.add(e.capture())
		}
		if e.gIdx < len(e.golden) && e.fired.Fired {
			if e.tryRejoin() {
				break
			}
		}
	}
}

// result builds the launch's Result from the engine's final state.
func (e *engine) result() Result {
	res := Result{
		Fire:           e.fired.Fire,
		RejoinedGolden: e.rejoined,
		Profile: Profile{
			Cycles:           e.cycle,
			WarpInstrs:       e.warpInstrs,
			LaneOps:          e.laneOps,
			ActiveWarpCycles: e.activeWarpCycles,
			SMCycles:         e.smCycles,
			SMsUsed:          e.smsUsed,
			CtrlOps:          e.ctrlOps,
			LoadResidency:    e.loadResidency,
			DivResidency:     e.divResidency,
		},
	}
	if e.tl != nil {
		res.Profile.Timeline = Timeline{
			BucketWidth: int64(1) << e.tlShift,
			Buckets:     e.tl,
		}
	}
	if !e.lean {
		res.Profile.PerOpLane = make(map[isa.Op]uint64)
		for op, n := range e.perOpLane {
			if n > 0 {
				res.Profile.PerOpLane[isa.Op(op)] = n
			}
		}
	}
	if e.dueMode != DUENone {
		res.Outcome = OutcomeDUE
		res.DUEMode = e.dueMode
		res.due = e.due
	}
	return res
}

// scheduleOne lets one scheduler pick a warp and issue up to
// IssuePerScheduler instructions from it. Warp wi belongs to scheduler
// wi%SchedulersPerSM, so the round-robin scan strides by the scheduler
// count in two segments (cursor..end, then front..cursor) instead of
// probing every warp; the order of candidates visited is identical to
// the modular scan this replaces.
func (e *engine) scheduleOne(sm *smState, sched int, slots []int) {
	n := len(sm.warps)
	if n == 0 {
		return
	}
	s := e.dev.SchedulersPerSM
	// start = lastPick % n and first = next index ≥ start in this
	// scheduler's stride class, both without integer division: the
	// cursor only exceeds n after retirement compaction (subtract
	// loop), and the stride residue is a mask for power-of-two
	// scheduler counts. Division here dominated whole-launch runtime.
	start := sm.lastPick[sched]
	for start >= n {
		start -= n
	}
	var k int
	if e.schedMask >= 0 {
		k = (sched - start) & e.schedMask
	} else {
		k = (sched - start) % s
		if k < 0 {
			k += s
		}
	}
	first := start + k
	cycle := e.cycle
	// A fruitless scan feeds the per-scheduler quiet cache: q gathers
	// the earliest unblock time over the class's stalled warps, and
	// probeable records whether any warp evaded the stall caches (e.g.
	// slot-blocked, freshly retired) and so must be probed next cycle.
	q := int64(1) << 62
	probeable := false
	for wi := first; wi < n; wi += s {
		// Warp retirement compacts sm.warps mid-scan; skip stale indices.
		if wi >= len(sm.warps) {
			continue
		}
		// Cheap skips inlined here so a stalled warp costs a few loads
		// per probe instead of a call into the issue path. A data-stalled
		// warp contributes its cached unblock time to the fast-forward
		// target exactly as the full dependency walk would.
		w := sm.warps[wi]
		if w.done || w.atBar {
			continue
		}
		if su := w.stallUntil; su > cycle {
			if su < e.nextReady {
				e.nextReady = su
			}
			if su < q {
				q = su
			}
			continue
		}
		if e.tryWarp(sm, sched, wi, w, slots) {
			return
		}
		if su := w.stallUntil; su > cycle {
			if su < q {
				q = su
			}
		} else {
			probeable = true
		}
	}
	for wi := sched; wi < start; wi += s {
		if wi >= len(sm.warps) {
			continue
		}
		w := sm.warps[wi]
		if w.done || w.atBar {
			continue
		}
		if su := w.stallUntil; su > cycle {
			if su < e.nextReady {
				e.nextReady = su
			}
			if su < q {
				q = su
			}
			continue
		}
		if e.tryWarp(sm, sched, wi, w, slots) {
			return
		}
		if su := w.stallUntil; su > cycle {
			if su < q {
				q = su
			}
		} else {
			probeable = true
		}
	}
	if !probeable {
		sm.schedQuiet[sched] = q
	}
}

// tryWarp attempts to issue from warp wi, which the caller has already
// screened (live, not at a barrier, not data-stalled); it returns true
// when the scheduler's pick is consumed (something issued) and the scan
// stops.
func (e *engine) tryWarp(sm *smState, sched, wi int, w *warpState, slots []int) bool {
	top := w.effTop()
	if top == nil {
		e.retireWarp(sm, w)
		return false
	}
	if !e.ready(w, top, slots) {
		return false
	}
	// The readiness just established covers the first issue directly; only
	// dual-issue re-derives the (changed) next instruction and re-checks.
	issued := 0
	for {
		ctrl := e.issue(sm, w, top, slots)
		issued++
		if ctrl || e.dueMode != DUENone {
			break // do not dual-issue past control flow or a DUE
		}
		if issued >= e.dev.IssuePerScheduler {
			break
		}
		// A non-control issue leaves the stack, mask, and exited set
		// untouched and only advances top.pc, so top stays the active
		// entry unless the new pc reached its reconvergence point.
		if top.pc == top.rpc {
			top = w.effTop()
			if top == nil {
				e.retireWarp(sm, w)
				break
			}
		}
		if w.atBar || !e.ready(w, top, slots) {
			break
		}
	}
	sm.lastPick[sched] = wi + 1
	return true
}

// ready checks scoreboard and issue-slot availability for the warp's next
// instruction. The decoded wait list holds every scoreboarded register
// (source spans plus destinations) pre-expanded, so the check is one
// flat loop.
func (e *engine) ready(w *warpState, top *simtEntry, slots []int) bool {
	if int(top.pc) >= len(e.dec) {
		return true // will fault at issue
	}
	d := &e.dec[top.pc]
	if slots[d.unit] <= 0 {
		return false
	}
	now := e.cycle
	if w.maxStamp <= now {
		return true // every stamp of this warp has already cleared
	}
	stall := int64(1) << 62
	rr := w.regReady
	for _, r := range d.wait {
		if t := rr[r]; t > now && t < stall {
			stall = t
		}
	}
	in := d.in
	if in.Pred != isa.PT {
		if t := w.predReady[in.Pred]; t > now && t < stall {
			stall = t
		}
	}
	if d.readsP != isa.PT {
		if t := w.predReady[d.readsP]; t > now && t < stall {
			stall = t
		}
	}
	if d.writesP && in.DstP != isa.PT {
		if t := w.predReady[in.DstP]; t > now && t < stall {
			stall = t
		}
	}
	if stall < int64(1)<<62 {
		// The earliest blocking stamp is both the fast-forward
		// contribution (the global minimum the original per-dependency
		// collection produced) and the stall cache for later probes.
		w.stallUntil = stall
		if stall < e.nextReady {
			e.nextReady = stall
		}
		return false
	}
	return true
}

// issue executes one warp-instruction. It returns true when the
// instruction was control flow (ends a dual-issue pair).
func (e *engine) issue(sm *smState, w *warpState, top *simtEntry, slots []int) bool {
	pc := top.pc
	if int(pc) >= len(e.dec) || pc < 0 {
		e.raiseDUE(DUEHang, fmt.Sprintf("instruction fetch beyond program end (pc=%d)", pc))
		return true
	}
	d := &e.dec[pc]
	in := d.in
	w.block.issued++
	if e.logRec != nil {
		e.logRec.issue(w, pc)
	}
	slots[d.unit]--
	w.stallUntil = 0 // pc and stamps change below: invalidate the stall cache
	e.warpInstrs++
	e.issuedThisCycle++
	// Residency accounting: every entry above the warp's base stack
	// frame is live divergence state held while this instruction issues;
	// an issued load holds an LDST-queue/MSHR entry for its latency.
	if !e.lean {
		div := uint64(len(w.stack) - 1)
		e.divResidency += div
		var load uint64
		if in.Op.IsLoad() {
			load = uint64(d.latency)
			e.loadResidency += load
		}
		if e.tlCur != nil {
			e.tlCur.Issued++
			e.tlCur.DivResidency += div
			e.tlCur.LoadResidency += load
		}
	}
	if e.cfg.Trace != nil {
		fmt.Fprintf(e.cfg.Trace, "%8d cta%03d w%02d /*%04d*/ %s\n",
			e.cycle, w.block.cta, w.widx, pc, in.String())
	}

	// Guard evaluation: the lanes of the active mask where the guard
	// predicate's mask (complemented for @!P) is set.
	active := top.mask &^ w.exited
	if in.Pred != isa.PT {
		pm := *w.pred(in.Pred)
		if in.PredNeg {
			pm = ^pm
		}
		pm &= active
		if !d.ctrl {
			active = pm
		} else {
			// Control flow interprets the predicate itself (BRA).
			return e.control(sm, w, top, in, active, pm)
		}
	} else if d.ctrl {
		return e.control(sm, w, top, in, active, active)
	}

	// Dynamic counting and fault triggering happen on executed lanes.
	lanes := bits.OnesCount32(active)
	if !e.lean {
		e.perOpLane[d.op] += uint64(lanes)
	}
	if e.logRec != nil {
		e.logRec.executed(lanes)
	}
	faultLane := e.armFault(d.op, active, lanes)
	e.laneOps += uint64(lanes)
	if faultLane != noFault {
		e.fired.cta, e.fired.issue, e.fired.lane = w.block.cta, w.block.issued-1, faultLane
	}

	if active != 0 && faultLane != skipWholeInstr {
		e.exec(w, d, active, faultLane)
	}
	// Scoreboard updates.
	for r := d.dstBase; r < d.dstBase+isa.Reg(d.dstN); r++ {
		if r != isa.RZ {
			w.regReady[r] = e.cycle + d.latency
		}
	}
	if d.writesP && in.DstP != isa.PT {
		w.predReady[in.DstP] = e.cycle + d.latency
	}
	if d.dstN > 0 || d.writesP {
		if st := e.cycle + d.latency; st > w.maxStamp {
			w.maxStamp = st
		}
	}
	top.pc = pc + 1
	return false
}

const (
	noFault        = -1
	skipWholeInstr = -2
)

// armFault advances the fault-trigger clocks and returns the lane (bit
// position) on which an operation-targeted fault fires during this
// warp-instruction, noFault when none, or skipWholeInstr for FaultSkip.
// Storage faults are applied immediately here.
func (e *engine) armFault(op isa.Op, active uint32, lanes int) int {
	f := e.fault
	if f == nil || e.fired.Fired {
		return noFault
	}
	switch f.Kind {
	case FaultRFBit, FaultSharedBit, FaultGlobalBit:
		if e.laneOps+uint64(lanes) > f.TriggerIndex {
			e.applyStorageFault()
		}
		return noFault
	}
	if !f.matches(op) {
		return noFault
	}
	idx := e.filteredOps
	e.filteredOps += uint64(lanes)
	if f.TriggerIndex >= idx && f.TriggerIndex < idx+uint64(lanes) {
		e.fired.Fired = true
		if f.Kind == FaultSkip {
			return skipWholeInstr
		}
		// Map the offset to the n-th active lane: clear the lower set
		// bits, then the lowest remaining one is the lane.
		m := active
		for nth := f.TriggerIndex - idx; nth > 0; nth-- {
			m &= m - 1
		}
		return bits.TrailingZeros32(m)
	}
	return noFault
}

// applyStorageFault flips the planned storage bit if its target is
// resident; otherwise the strike lands on dead state (Landed stays false
// and the campaign counts it as masked by construction).
func (e *engine) applyStorageFault() {
	f := e.fault
	e.fired.Fired = true
	switch f.Kind {
	case FaultGlobalBit:
		e.glob.FlipBit(f.BitIdx)
		e.fired.Landed = true
	case FaultRFBit, FaultSharedBit:
		blk := e.findResident(f.Block)
		if blk == nil {
			return // target CTA not resident: strike hits dead state
		}
		if f.Kind == FaultSharedBit {
			blk.shared.FlipBit(f.BitIdx)
			e.fired.Landed = true
			return
		}
		t := f.Thread % blk.threads
		r := f.Reg % blk.nregs
		blk.regs[r*blk.threads+t] ^= 1 << (f.Bit & 31)
		e.fired.Landed = true
	}
}

func (e *engine) findResident(cta int) *blockState {
	for s := range e.sms {
		for _, w := range e.sms[s].warps {
			if w.block.cta == cta {
				return w.block
			}
		}
	}
	return nil
}

// control executes control-flow instructions. predMask holds the lanes
// (within active) where the guard predicate evaluated true.
func (e *engine) control(sm *smState, w *warpState, top *simtEntry, in *isa.Instr, active, predMask uint32) bool {
	e.laneOps += uint64(bits.OnesCount32(active))
	if !e.lean {
		e.perOpLane[in.Op] += uint64(bits.OnesCount32(active))
		// Fetch-redirect accounting: a taken BRA and a SYNC jump move
		// the warp's fetch stream to a non-sequential PC; SSY/BAR/EXIT
		// fall through. This is the measured counterpart of the static
		// model's fetch-exposure proxy.
		switch in.Op {
		case isa.OpBRA:
			if predMask != 0 {
				e.ctrlOps++
				if e.tlCur != nil {
					e.tlCur.CtrlOps++
				}
			}
		case isa.OpSYNC:
			e.ctrlOps++
			if e.tlCur != nil {
				e.tlCur.CtrlOps++
			}
		}
	}
	pc := top.pc
	switch in.Op {
	case isa.OpSSY:
		w.pendingReconv = int32(in.Target)
		top.pc = pc + 1
	case isa.OpBRA:
		taken := predMask
		rpc := w.pendingReconv
		w.pendingReconv = -1
		switch {
		case taken == 0:
			top.pc = pc + 1
		case taken == active:
			top.pc = int32(in.Target)
		default:
			if rpc < 0 {
				rpc = pc + 1
			}
			if len(w.stack) >= maxSIMTDepth {
				e.raiseDUE(DUESyncError, "divergence stack overflow")
				return true
			}
			top.pc = rpc
			w.stack = append(w.stack,
				simtEntry{mask: active &^ taken, pc: pc + 1, rpc: rpc},
				simtEntry{mask: taken, pc: int32(in.Target), rpc: rpc},
			)
		}
	case isa.OpSYNC:
		if top.rpc < 0 {
			e.raiseDUE(DUESyncError, "SYNC outside divergent region")
			return true
		}
		top.pc = top.rpc
	case isa.OpBAR:
		if active != w.fullMask&^w.exited {
			e.raiseDUE(DUESyncError, "barrier with divergent warp")
			return true
		}
		w.atBar = true
		w.block.barWaiting++
		e.checkBarrier(sm, w.block)
		top.pc = pc + 1
	case isa.OpEXIT:
		w.exited |= predMask
		top.pc = pc + 1
		if w.exited == w.fullMask {
			e.retireWarp(sm, w)
		}
	default:
		e.raiseDUE(DUEUnattributed, fmt.Sprintf("unhandled control op %s", in.Op))
	}
	return true
}

// bucketFor returns the timeline bucket covering the cycle, folding the
// array (doubling the bucket width) as often as needed to keep the
// index inside the fixed bucket count.
func (e *engine) bucketFor(cycle int64) *TimelineBucket {
	idx := (cycle - 1) >> e.tlShift
	for idx >= TimelineBuckets {
		e.foldTimeline()
		idx = (cycle - 1) >> e.tlShift
	}
	return &e.tl[idx]
}

// foldTimeline merges adjacent bucket pairs into the front half of the
// array and doubles the bucket width, keeping memory O(1) per launch.
func (e *engine) foldTimeline() {
	for i := 0; i < TimelineBuckets/2; i++ {
		a, b := &e.tl[2*i], &e.tl[2*i+1]
		e.tl[i] = TimelineBucket{
			Cycles:           a.Cycles + b.Cycles,
			SMCycles:         a.SMCycles + b.SMCycles,
			ActiveWarpCycles: a.ActiveWarpCycles + b.ActiveWarpCycles,
			Issued:           a.Issued + b.Issued,
			CtrlOps:          a.CtrlOps + b.CtrlOps,
			LoadResidency:    a.LoadResidency + b.LoadResidency,
			DivResidency:     a.DivResidency + b.DivResidency,
		}
	}
	for i := TimelineBuckets / 2; i < TimelineBuckets; i++ {
		e.tl[i] = TimelineBucket{}
	}
	e.tlShift++
}

// tlAddSpan credits a fast-forwarded cycle span [from, to] to the
// timeline, walking whole buckets instead of individual cycles so a
// long memory stall costs O(buckets touched), not O(cycles skipped).
func (e *engine) tlAddSpan(from, to int64, liveSMs int, liveWarps uint64) {
	for c := from; c <= to; {
		b := e.bucketFor(c)
		width := int64(1) << e.tlShift
		bucketEnd := ((c-1)/width + 1) * width // last cycle this bucket covers
		n := to - c + 1
		if span := bucketEnd - c + 1; span < n {
			n = span
		}
		b.Cycles += n
		b.SMCycles += uint64(n) * uint64(liveSMs)
		b.ActiveWarpCycles += uint64(n) * liveWarps
		c += n
	}
}
