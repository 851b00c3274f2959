// Instruction decode: per-instruction metadata the scheduler consults
// every cycle, the operand pre-resolution that lets ALU handlers run as
// contiguous 32-lane slice loops, and the handler jump table that
// replaces the per-issue opcode switch.
//
// Decoded programs are immutable at runtime, so they are memoized per
// (program, device) pair: a fault campaign replays the same launch
// thousands of times and pays for decode once.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gpurel/internal/device"
	"gpurel/internal/isa"
)

// execFn is an op handler selected at decode time; together the
// handlers form the jump table that replaces the three-level opcode
// switch the engine used to evaluate on every issued instruction.
type execFn func(e *engine, w *warpState, d *decoded, active uint32)

// srcKind tells operand resolution how a source's Neg modifier acts:
// integer negation, an IEEE sign flip at 32/64 bits, or a sign flip
// applied only after F16→F32 widening.
type srcKind uint8

const (
	srcRaw srcKind = iota // operand read as raw bits, Neg ignored
	srcInt
	srcF32
	srcF64
	srcF16
)

// srcRef is a source operand resolved at decode time. Register operands
// carry the SoA row index plus the negation to apply per lane;
// immediates and RZ become broadcast rows with the negation already
// folded in (except FP16, whose negation acts on the widened value).
type srcRef struct {
	reg    int32 // SoA register row, or -1 when bc/bcHi broadcast rows apply
	ineg   bool
	fneg   uint32
	fneg64 uint64
	bc     *[32]uint32
	bcHi   *[32]uint32 // high word of 64-bit immediates (and RZ pairs)
}

// decoded caches everything the scheduler and the exec handlers need so
// the per-issue path does no per-opcode or per-operand decision making.
type decoded struct {
	in      *isa.Instr
	op      isa.Op
	ctrl    bool // control flow: the engine interprets it, exec never runs it
	unit    device.Unit
	latency int64
	dstBase isa.Reg
	dstN    int
	width   uint8     // result width the result-fault rules key on (resultWidth)
	wait    []isa.Reg // scoreboard registers (source spans + destinations)
	writesP bool
	readsP  isa.PredReg // PT when none beyond the guard
	run     execFn
	handler execFn // run before the discarded-result collapse (resolve)
	src     [3]srcRef
}

// row returns the warp's contiguous lane view of source operand i:
// either a slice of the block's SoA register file or the operand's
// broadcast row.
func (d *decoded) row(b *blockState, w *warpState, i int) []uint32 {
	s := &d.src[i]
	if s.reg < 0 {
		return s.bc[:w.lanes]
	}
	off := int(s.reg)*b.threads + w.base
	return b.regs[off : off+w.lanes]
}

// rowHi returns the high-word row of a 64-bit source operand.
func (d *decoded) rowHi(b *blockState, w *warpState, i int) []uint32 {
	s := &d.src[i]
	if s.reg < 0 {
		return s.bcHi[:w.lanes]
	}
	off := (int(s.reg)+1)*b.threads + w.base
	return b.regs[off : off+w.lanes]
}

// dstRow returns the warp's destination row (nil for RZ).
func (d *decoded) dstRow(b *blockState, w *warpState) []uint32 {
	if d.dstBase == isa.RZ {
		return nil
	}
	off := int(d.dstBase)*b.threads + w.base
	return b.regs[off : off+w.lanes]
}

// dstRowHi returns the second register row of a 64-bit destination.
func (d *decoded) dstRowHi(b *blockState, w *warpState) []uint32 {
	off := (int(d.dstBase)+1)*b.threads + w.base
	return b.regs[off : off+w.lanes]
}

var zeroRow [32]uint32

func broadcastRow(v uint32) *[32]uint32 {
	if v == 0 {
		return &zeroRow
	}
	row := new([32]uint32)
	for i := range row {
		row[i] = v
	}
	return row
}

// resolveSrc folds an operand into a srcRef. Negation folds into the
// broadcast value where that is bit-exact (integer two's complement,
// IEEE sign flip); FP16 keeps the sign flip for after widening (h16).
func resolveSrc(o isa.Operand, neg bool, kind srcKind) srcRef {
	if !o.IsImm && o.Reg != isa.RZ {
		s := srcRef{reg: int32(o.Reg)}
		if neg {
			switch kind {
			case srcInt:
				s.ineg = true
			case srcF32, srcF16:
				s.fneg = 1 << 31
			case srcF64:
				s.fneg64 = 1 << 63
			}
		}
		return s
	}
	v := uint32(0)
	if o.IsImm {
		v = o.Imm
	}
	var hi uint32
	s := srcRef{reg: -1}
	if neg {
		switch kind {
		case srcInt:
			v = uint32(-int32(v))
		case srcF32:
			v ^= 1 << 31
		case srcF64:
			hi ^= 1 << 31
		case srcF16:
			s.fneg = 1 << 31
		}
	}
	s.bc = broadcastRow(v)
	s.bcHi = broadcastRow(hi)
	return s
}

type decodeKey struct {
	prog *isa.Program
	dev  *device.Device
}

// decCache memoizes decoded programs per (program, device). Decoded
// slices are read-only after construction, so engines share them. The
// cache is cleared wholesale past decCacheMax entries so builders that
// assemble programs in a loop (benchmarks, the opt matrix) do not pin
// every program they ever built.
var (
	decCache    sync.Map
	decCacheLen atomic.Int64
)

const decCacheMax = 512

func decodeFor(dev *device.Device, prog *isa.Program) ([]decoded, error) {
	key := decodeKey{prog, dev}
	if v, ok := decCache.Load(key); ok {
		return v.([]decoded), nil
	}
	dec, err := decodeProgram(dev, prog)
	if err != nil {
		return nil, err
	}
	if decCacheLen.Add(1) > decCacheMax {
		decCache.Range(func(k, _ any) bool {
			decCache.Delete(k)
			return true
		})
		decCacheLen.Store(1)
	}
	decCache.Store(key, dec)
	return dec, nil
}

func decodeProgram(dev *device.Device, prog *isa.Program) ([]decoded, error) {
	dec := make([]decoded, len(prog.Instrs))
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		d := &dec[i]
		d.in = in
		d.op = in.Op
		d.ctrl = in.Op.IsControl()
		d.unit = dev.UnitFor(in.Op)
		d.latency = int64(dev.Latency(in.Op))
		d.dstBase = in.Dst
		d.dstN = in.DstRegs()
		d.width = resultWidth(in)
		d.readsP = isa.PT
		if dev.UnitsPerSM[d.unit] == 0 {
			return nil, fmt.Errorf("sim: %s uses %s, which %s has no %s units for",
				prog.Name, in.Op, dev.Name, d.unit)
		}
		for _, span := range in.SrcRegSpans() {
			for r := span[0]; r < span[0]+span[1]; r++ {
				d.wait = append(d.wait, r)
			}
		}
		for r := d.dstBase; r < d.dstBase+isa.Reg(d.dstN); r++ {
			if r != isa.RZ {
				d.wait = append(d.wait, r)
			}
		}
		switch in.Op {
		case isa.OpISETP, isa.OpFSETP, isa.OpDSETP, isa.OpHSETP:
			d.writesP = true
		case isa.OpSEL:
			d.readsP = in.DstP
		}
		resolve(d)
	}
	return dec, nil
}

// resolve assigns the handler and pre-resolves source operands. Modifier
// variants (logic op, shift direction, conversion pair) pick distinct
// handlers here, so the issue path never re-inspects them.
func resolve(d *decoded) {
	in := d.in
	raw := func(i int) { d.src[i] = resolveSrc(in.Srcs[i], false, srcRaw) }
	neg := func(n int, kind srcKind) {
		for i := 0; i < n; i++ {
			d.src[i] = resolveSrc(in.Srcs[i], in.Neg[i], kind)
		}
	}
	if d.ctrl {
		return
	}
	switch in.Op {
	case isa.OpHMMA, isa.OpFMMA:
		d.run = execMMA
		return
	case isa.OpLDG, isa.OpLDS, isa.OpSTG, isa.OpSTS, isa.OpRED:
		raw(0) // address
		switch in.Op {
		case isa.OpLDG:
			d.run = execLDG
		case isa.OpLDS:
			d.run = execLDS
		case isa.OpSTG:
			d.run = execSTG
		case isa.OpSTS:
			d.run = execSTS
		case isa.OpRED:
			d.run = execRED
		}
		d.handler = d.run
		return
	}

	switch in.Op {
	case isa.OpNOP:
		d.run = execNop
	case isa.OpMOV, isa.OpMOV32I:
		raw(0)
		d.run = execMOV
	case isa.OpSEL:
		raw(0)
		raw(1)
		d.run = execSEL
	case isa.OpS2R:
		d.run = execS2R
	case isa.OpFADD:
		neg(2, srcF32)
		d.run = execFADD
	case isa.OpFMUL:
		neg(2, srcF32)
		d.run = execFMUL
	case isa.OpFFMA:
		neg(3, srcF32)
		d.run = execFFMA
	case isa.OpDADD:
		neg(2, srcF64)
		d.run = execDADD
	case isa.OpDMUL:
		neg(2, srcF64)
		d.run = execDMUL
	case isa.OpDFMA:
		neg(3, srcF64)
		d.run = execDFMA
	case isa.OpHADD:
		neg(2, srcF16)
		d.run = execHADD
	case isa.OpHMUL:
		neg(2, srcF16)
		d.run = execHMUL
	case isa.OpHFMA:
		neg(3, srcF16)
		d.run = execHFMA
	case isa.OpIADD:
		neg(2, srcInt)
		d.run = execIADD
	case isa.OpIMUL:
		neg(2, srcInt)
		d.run = execIMUL
	case isa.OpIMAD:
		neg(3, srcInt)
		d.run = execIMAD
	case isa.OpIMNMX:
		raw(0)
		raw(1)
		d.run = execIMNMX
	case isa.OpLOP:
		raw(0)
		raw(1)
		switch in.Logic {
		case isa.LopAND:
			d.run = execLOPAND
		case isa.LopOR:
			d.run = execLOPOR
		default:
			d.run = execLOPXOR
		}
	case isa.OpSHF:
		raw(0)
		raw(1)
		if in.Shift == isa.ShiftL {
			d.run = execSHFL
		} else {
			d.run = execSHFR
		}
	case isa.OpISETP:
		raw(0)
		raw(1)
		d.run = execISETP
	case isa.OpFSETP:
		raw(0)
		raw(1)
		d.run = execFSETP
	case isa.OpDSETP:
		raw(0)
		raw(1)
		d.run = execDSETP
	case isa.OpHSETP:
		raw(0)
		raw(1)
		d.run = execHSETP
	case isa.OpF2F:
		raw(0)
		switch {
		case in.CvtFrom == isa.F32 && in.CvtTo == isa.F64:
			d.run = execF2F_32to64
		case in.CvtFrom == isa.F64 && in.CvtTo == isa.F32:
			d.run = execF2F_64to32
		case in.CvtFrom == isa.F32 && in.CvtTo == isa.F16:
			d.run = execF2F_32to16
		case in.CvtFrom == isa.F16 && in.CvtTo == isa.F32:
			d.run = execF2F_16to32
		case in.CvtFrom == isa.F64 && in.CvtTo == isa.F16:
			d.run = execF2F_64to16
		case in.CvtFrom == isa.F16 && in.CvtTo == isa.F64:
			d.run = execF2F_16to64
		default:
			d.run = execCvtBad
		}
	case isa.OpF2I:
		raw(0)
		d.run = execF2I
	case isa.OpI2F:
		raw(0)
		d.run = execI2F
		if in.CvtTo != isa.F32 {
			d.run = execCvtBad
		}
	case isa.OpMUFU:
		raw(0)
		d.run = execMUFU
	default:
		d.run = execUnimplemented
		return
	}

	// Results discarded into RZ (or PT for the SETPs) have no
	// architectural effect, so the handler collapses to a no-op. handler
	// keeps the op's own one for a register-index fault, which lands the
	// faulted lane's result in a real register (engine.redirect).
	d.handler = d.run
	if d.writesP {
		if in.DstP == isa.PT {
			d.run = execNop
		}
	} else if in.Op != isa.OpNOP && in.Dst == isa.RZ {
		d.run = execNop
	}
}

// resultWidth is the width in bits of the GPR result a value-bit or
// register-index fault corrupts: 64 for FP64 arithmetic, conversions to
// F64 and wide loads, 0 for instructions with no GPR result (MMA models
// its faults itself), 32 otherwise. Unlike isa.Instr.DstRegs it does
// not drop to 0 for an RZ destination.
func resultWidth(in *isa.Instr) uint8 {
	switch {
	case !in.Op.WritesGPR() || in.Op == isa.OpHMMA || in.Op == isa.OpFMMA:
		return 0
	case in.Op == isa.OpDADD || in.Op == isa.OpDMUL || in.Op == isa.OpDFMA,
		in.Op.IsLoad() && in.Wide, in.Op == isa.OpF2F && in.CvtTo == isa.F64:
		return 64
	}
	return 32
}
