package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// Lane-mask differential test: a handler run once over an active mask
// must leave the same architectural state as the same handler run on
// each single-lane mask of it in increasing lane order. That is the
// contract every masked handler loop keeps, whether it walks set bits
// or takes a full-warp fast path: atomics and same-address stores see
// the lanes in order, and a DUE stops at the first faulting lane.

const (
	lmThreads   = 48 // warp 1 has 16 live lanes
	lmShared    = 512
	lmGlobWords = 256
	lmMasks     = 40 // random masks per instruction and warp
)

// lmInstrs is the instruction list the test decodes: the result-fault
// rows (one per handler family, operands in the same registers), stores
// and atomics, immediate operands, and PT variants. R10 holds shared
// and R11 global addresses.
func lmInstrs() []isa.Instr {
	var ins []isa.Instr
	for _, row := range rfRows() {
		ins = append(ins, rfInstr(row.in))
	}
	for _, row := range rfWideRZRows() {
		ins = append(ins, rfInstr(row.in))
	}
	r, imm := isa.R, isa.Imm
	srcs := func(o ...isa.Operand) (s [3]isa.Operand) {
		copy(s[:], o)
		return s
	}
	for _, in := range []isa.Instr{
		{Op: isa.OpSTG, Srcs: srcs(r(11), imm(0), r(13))},
		{Op: isa.OpSTG, Wide: true, Srcs: srcs(r(11), imm(8), r(2))},
		{Op: isa.OpSTG, Srcs: srcs(r(11), imm(4), r(isa.RZ))},
		{Op: isa.OpSTS, Srcs: srcs(r(10), imm(0), r(13))},
		{Op: isa.OpSTS, Wide: true, Srcs: srcs(r(10), imm(8), r(2))},
		{Op: isa.OpRED, Srcs: srcs(r(11), imm(0), r(13))},
		{Op: isa.OpRED, Srcs: srcs(r(11), imm(4), r(isa.RZ))},
		{Op: isa.OpIADD, Dst: 14, Srcs: srcs(r(8), isa.ImmInt(-7)), Neg: [3]bool{true, true}},
		{Op: isa.OpIMAD, Dst: 14, Srcs: srcs(r(8), r(9), r(13)), Neg: [3]bool{true, false, true}},
		{Op: isa.OpIMNMX, Dst: 14, Cmp: isa.CmpGT, Srcs: srcs(r(8), r(9))},
		{Op: isa.OpFFMA, Dst: 14, Srcs: srcs(r(0), imm(math.Float32bits(1.5)), r(1))},
		{Op: isa.OpHFMA, Dst: 14, Srcs: srcs(r(6), r(7), r(6)), Neg: [3]bool{true, false, true}},
		{Op: isa.OpSEL, Dst: 14, DstP: isa.PT, Srcs: srcs(r(8), r(9))},
		{Op: isa.OpISETP, Dst: isa.RZ, DstP: 5, Cmp: isa.CmpNE, Srcs: srcs(r(13), r(15))},
		{Op: isa.OpS2R, Dst: 14, SReg: isa.SrTidX},
		{Op: isa.OpMUFU, Dst: 14, Mufu: isa.MufuLG2, Srcs: srcs(r(0))},
	} {
		ins = append(ins, rfInstr(in))
	}
	return ins
}

// lmState is the architectural state a handler can touch.
type lmState struct {
	regs, preds, shared []uint32
	glob                *mem.Snapshot
	due                 DUEMode
	cause               dueCause
}

type lmHarness struct {
	e     *engine
	blk   *blockState
	glob  *mem.Global
	gBase uint32
	rng   *rand.Rand
}

func newLMHarness(t *testing.T) *lmHarness {
	t.Helper()
	g := mem.NewGlobal(1 << 14)
	base, err := g.Alloc(lmGlobWords * 4)
	if err != nil {
		t.Fatal(err)
	}
	prog := &isa.Program{Name: "lanemask", Instrs: lmInstrs(), NumRegs: rfRegs, SharedMem: lmShared}
	e, err := newEngine(Config{Device: device.V100(), Program: prog, GridX: 1, GridY: 1, BlockThreads: lmThreads}, g, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.release)
	return &lmHarness{e: e, blk: e.startBlock(0), glob: g, gBase: base, rng: rand.New(rand.NewPCG(31, 7))}
}

// addrs fills a warp's address row with one of the access patterns the
// handlers distinguish: coalesced (the full-warp row copy), uniform
// (one broadcast load), a few shared addresses (same-address stores
// and atomics), or scattered ones. Some patterns run past the region
// or carry a null or unaligned lane, so DUEs show up mid-warp.
func (h *lmHarness) addrs(row []uint32, base, words uint32) {
	rng := h.rng
	pick := func() uint32 { return base + 8*rng.Uint32N(words/2) }
	switch rng.IntN(5) {
	case 0:
		a0 := base + 4*rng.Uint32N(words)
		for l := range row {
			row[l] = a0 + uint32(4*l)
		}
	case 1:
		a := pick()
		for l := range row {
			row[l] = a
		}
	case 2:
		few := [3]uint32{pick(), pick(), pick()}
		for l := range row {
			row[l] = few[rng.IntN(len(few))]
		}
	default:
		for l := range row {
			row[l] = pick()
		}
	}
	if rng.IntN(3) == 0 {
		bad := [...]uint32{0, base + 2, base + 4*words + 64}
		row[rng.IntN(len(row))] = bad[rng.IntN(len(bad))]
	}
}

// randomize gives every register, predicate, and memory word a fresh
// random value; predicate masks stay within each warp's live lanes.
func (h *lmHarness) randomize() {
	b, rng := h.blk, h.rng
	for i := range b.regs {
		b.regs[i] = rng.Uint32()
	}
	for _, w := range b.warps {
		for p := 0; p < numPreds; p++ {
			*w.pred(isa.PredReg(p)) = rng.Uint32() & w.fullMask
		}
		*w.pred(isa.PT) = w.fullMask
		h.addrs(b.regRow(10, w.base, w.lanes), 0, lmShared/4)
		h.addrs(b.regRow(11, w.base, w.lanes), h.gBase, lmGlobWords)
	}
	words := make([]uint32, lmShared/4)
	for i := range words {
		words[i] = rng.Uint32()
	}
	b.shared.RestoreWords(words)
	for i := uint32(0); i < lmGlobWords; i++ {
		h.glob.SetWord(h.gBase+4*i, rng.Uint32())
	}
}

func (h *lmHarness) save() lmState {
	return lmState{
		regs:   slices.Clone(h.blk.regs),
		preds:  slices.Clone(h.blk.preds),
		shared: h.blk.shared.SnapshotWords(),
		glob:   h.glob.Snapshot(),
		due:    h.e.dueMode,
		cause:  h.e.due,
	}
}

func (h *lmHarness) restore(s lmState) {
	copy(h.blk.regs, s.regs)
	copy(h.blk.preds, s.preds)
	h.blk.shared.RestoreWords(s.shared)
	h.glob.Restore(s.glob)
	h.e.dueMode, h.e.due = s.due, s.cause
}

// diff lists where two post-states differ. It loads got's global
// memory to compare it with want's snapshot.
func (h *lmHarness) diff(got, want lmState) []string {
	var out []string
	if got.due != want.due || got.cause != want.cause {
		out = append(out, fmt.Sprintf("DUE %s %q, want %s %q", got.due, got.cause.String(), want.due, want.cause.String()))
	}
	for i := range want.regs {
		if got.regs[i] != want.regs[i] {
			out = append(out, fmt.Sprintf("R%d thread %d = %#x, want %#x",
				i/lmThreads, i%lmThreads, got.regs[i], want.regs[i]))
		}
	}
	for i := range want.preds {
		if got.preds[i] != want.preds[i] {
			out = append(out, fmt.Sprintf("P%d warp %d = %#x, want %#x",
				i%numPreds, i/numPreds, got.preds[i], want.preds[i]))
		}
	}
	if !slices.Equal(got.shared, want.shared) {
		out = append(out, "shared memory differs")
	}
	h.glob.Restore(got.glob)
	if !h.glob.EqualSnapshot(want.glob) {
		out = append(out, "global memory differs")
	}
	return out
}

// mask draws a non-empty active mask within the warp's live lanes:
// the full mask, one lane, or a random subset.
func (h *lmHarness) mask(w *warpState) uint32 {
	for {
		var m uint32
		switch h.rng.IntN(4) {
		case 0:
			m = w.fullMask
		case 1:
			m = 1 << h.rng.IntN(w.lanes)
		default:
			m = h.rng.Uint32() & w.fullMask
		}
		if m != 0 {
			return m
		}
	}
}

func handlerName(fn execFn) string {
	return runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
}

// TestMaskedHandlersMatchLaneByLane runs every handler decode picks on
// random state and random active masks of a full and a partial warp.
// Running once with mask M must equal running with each single-lane
// mask of M in increasing lane order, stopping at the first DUE:
// registers, predicate masks, shared and global memory, and the DUE
// mode with its detail (which names the first faulting lane's address).
// MMA is warp-collective, not per lane, and raises a DUE on any
// partial mask, so it is not a per-lane handler and is left out.
func TestMaskedHandlersMatchLaneByLane(t *testing.T) {
	h := newLMHarness(t)
	covered := map[string]bool{}
	for pc := range h.e.dec {
		d := &h.e.dec[pc]
		covered[handlerName(d.run)] = true
		for _, w := range h.blk.warps {
			for k := 0; k < lmMasks; k++ {
				h.randomize()
				m := h.mask(w)
				start := h.save()
				d.run(h.e, w, d, m)
				whole := h.save()
				h.restore(start)
				for lane := 0; lane < w.lanes && h.e.dueMode == DUENone; lane++ {
					if m&(1<<lane) != 0 {
						d.run(h.e, w, d, 1<<lane)
					}
				}
				byLane := h.save()
				h.restore(start)
				for _, msg := range h.diff(whole, byLane) {
					t.Errorf("%s warp %d mask %#x: %s", d.in, w.widx, m, msg)
				}
			}
		}
	}
	for _, fn := range []execFn{
		execNop, execMOV, execSEL, execS2R, execFADD, execFMUL, execFFMA,
		execDADD, execDMUL, execDFMA, execHADD, execHMUL, execHFMA,
		execIADD, execIMUL, execIMAD, execIMNMX, execLOPAND, execLOPOR,
		execLOPXOR, execSHFL, execSHFR, execISETP, execFSETP, execDSETP,
		execHSETP, execF2F_32to64, execF2F_64to32, execF2F_32to16,
		execF2F_16to32, execF2F_64to16, execF2F_16to64, execCvtBad,
		execF2I, execI2F, execMUFU, execLDG, execLDS, execSTG, execSTS,
		execRED,
	} {
		if !covered[handlerName(fn)] {
			t.Errorf("no instruction decodes to %s", handlerName(fn))
		}
	}
}

// TestPredFaultFlipsOneLane checks the predicate-mask form of a
// FaultPredBit: on a SETP with a real destination it flips exactly the
// faulted lane's bit of that predicate, in a full and a partial warp,
// and leaves every other predicate, lane, and register as the
// unfaulted issue left them.
func TestPredFaultFlipsOneLane(t *testing.T) {
	h := newLMHarness(t)
	n := 0
	for pc := range h.e.dec {
		d := &h.e.dec[pc]
		if !d.writesP || d.in.DstP == isa.PT {
			continue
		}
		for _, w := range h.blk.warps {
			for k := 0; k < lmMasks; k++ {
				h.randomize()
				m := h.mask(w)
				lane := h.rng.IntN(w.lanes)
				m |= 1 << lane
				start := h.save()
				h.e.exec(w, d, m, noFault)
				want := h.save()
				want.preds[w.widx*numPreds+int(d.in.DstP)] ^= 1 << lane
				h.restore(start)
				h.e.fault = &FaultPlan{Kind: FaultPredBit}
				h.e.exec(w, d, m, lane)
				h.e.fault = nil
				got := h.save()
				h.restore(start)
				for _, msg := range h.diff(got, want) {
					t.Errorf("%s warp %d mask %#x lane %d: %s", d.in, w.widx, m, lane, msg)
				}
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no SETP with a real destination predicate")
	}
}
