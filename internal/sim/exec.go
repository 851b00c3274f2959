// Execution handlers. ALU ops run as contiguous 32-lane slice loops
// over the block's struct-of-arrays register file, with operands
// pre-resolved at decode (decode.go). A divergent issue walks only the
// set bits of its active mask, in increasing lane order (the order
// atomics, same-address stores and the first bad address of a DUE
// depend on), so its cost scales with the lanes it executes.
// Predicates are per-warp lane masks: a SETP builds one from its
// compares, and SEL and the issue guard test its bits. Every issue,
// faulted or not, runs the one decoded handler: a result fault then
// edits the faulted lane's architectural result (engine.exec), while
// address faults, store-value faults and MMA faults are modeled inline
// by their handlers, keyed off engine.faultLane.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"gpurel/internal/isa"
)

// exec functionally executes one warp-instruction over the active lanes.
// faultLane >= 0 selects the lane whose result the armed fault corrupts:
// the handler runs as on any other issue, then the fault edits that
// lane's result by the width decode recorded (DESIGN §13). A 64-bit
// result is immune to a register-index fault, and a handler that raised
// a DUE has no result to corrupt.
func (e *engine) exec(w *warpState, d *decoded, active uint32, faultLane int) {
	e.faultLane = faultLane
	if faultLane < 0 {
		d.run(e, w, d, active)
		return
	}
	f, bit := e.fault, uint32(1)<<faultLane
	if f.Kind == FaultRegIndex && d.width == 32 {
		d.run(e, w, d, active&^bit)
		r := e.redirect(w.block, d)
		r.run(e, w, r, bit)
		return
	}
	d.run(e, w, d, active)
	if e.dueMode != DUENone {
		return
	}
	b, t := w.block, w.base+faultLane
	switch {
	case f.Kind == FaultValueBit && d.width > 0:
		e.fired.Bit, e.fired.Width = f.Bit&int(d.width-1), int(d.width)
		if d.dstBase != isa.RZ {
			b.regs[(int(d.dstBase)+e.fired.Bit/32)*b.threads+t] ^= 1 << (e.fired.Bit % 32)
		}
	case f.Kind == FaultPredBit && d.writesP && d.in.DstP != isa.PT:
		*w.pred(d.in.DstP) ^= bit
	}
}

// redirect returns d re-targeted at the register a register-index fault
// lands its result in (SASSIFI IOA: a flipped output-address field). It
// runs the op's own handler even where decode collapsed an RZ
// destination to a no-op.
func (e *engine) redirect(b *blockState, d *decoded) *decoded {
	e.redirIn = *d.in
	e.redirIn.Dst = isa.Reg((int(d.dstBase) ^ 1<<(e.fault.Bit%5)) % b.nregs)
	e.redir = *d
	e.redir.in, e.redir.dstBase, e.redir.run = &e.redirIn, e.redirIn.Dst, d.handler
	return &e.redir
}

// --- fast handlers: contiguous SoA lane loops ---

func execNop(e *engine, w *warpState, d *decoded, active uint32) {}

func execMOV(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	if active == w.fullMask {
		copy(out, s0)
		return
	}
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = s0[lane]
	}
}

func execSEL(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	pm := *w.pred(d.readsP)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		v := s1[lane]
		if pm&(1<<lane) != 0 {
			v = s0[lane]
		}
		out[lane] = v
	}
}

func execS2R(e *engine, w *warpState, d *decoded, active uint32) {
	out := d.dstRow(w.block, w)
	sr := d.in.SReg
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = e.special(w, w.base+lane, sr)
	}
}

func execFADD(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	n0, n1 := d.src[0].fneg, d.src[1].fneg
	if active == w.fullMask {
		for lane := range out {
			v := math.Float32frombits(s0[lane]^n0) + math.Float32frombits(s1[lane]^n1)
			out[lane] = math.Float32bits(v)
		}
		return
	}
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		v := math.Float32frombits(s0[lane]^n0) + math.Float32frombits(s1[lane]^n1)
		out[lane] = math.Float32bits(v)
	}
}

func execFMUL(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	n0, n1 := d.src[0].fneg, d.src[1].fneg
	if active == w.fullMask {
		for lane := range out {
			v := math.Float32frombits(s0[lane]^n0) * math.Float32frombits(s1[lane]^n1)
			out[lane] = math.Float32bits(v)
		}
		return
	}
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		v := math.Float32frombits(s0[lane]^n0) * math.Float32frombits(s1[lane]^n1)
		out[lane] = math.Float32bits(v)
	}
}

func execFFMA(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	s2 := d.row(b, w, 2)
	n0, n1, n2 := d.src[0].fneg, d.src[1].fneg, d.src[2].fneg
	if active == w.fullMask {
		for lane := range out {
			v := float32(math.FMA(
				float64(math.Float32frombits(s0[lane]^n0)),
				float64(math.Float32frombits(s1[lane]^n1)),
				float64(math.Float32frombits(s2[lane]^n2))))
			out[lane] = math.Float32bits(v)
		}
		return
	}
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		v := float32(math.FMA(
			float64(math.Float32frombits(s0[lane]^n0)),
			float64(math.Float32frombits(s1[lane]^n1)),
			float64(math.Float32frombits(s2[lane]^n2))))
		out[lane] = math.Float32bits(v)
	}
}

func (d *decoded) f64at(b *blockState, w *warpState, i, lane int) float64 {
	lo := d.row(b, w, i)[lane]
	hi := d.rowHi(b, w, i)[lane]
	return math.Float64frombits((uint64(lo) | uint64(hi)<<32) ^ d.src[i].fneg64)
}

func (d *decoded) writeF64(b *blockState, w *warpState, lane int, v uint64) {
	d.dstRow(b, w)[lane] = uint32(v)
	d.dstRowHi(b, w)[lane] = uint32(v >> 32)
}

func execDADD(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		v := d.f64at(b, w, 0, lane) + d.f64at(b, w, 1, lane)
		d.writeF64(b, w, lane, math.Float64bits(v))
	}
}

func execDMUL(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		v := d.f64at(b, w, 0, lane) * d.f64at(b, w, 1, lane)
		d.writeF64(b, w, lane, math.Float64bits(v))
	}
}

func execDFMA(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		v := math.FMA(d.f64at(b, w, 0, lane), d.f64at(b, w, 1, lane), d.f64at(b, w, 2, lane))
		d.writeF64(b, w, lane, math.Float64bits(v))
	}
}

// h16 widens a packed FP16 lane value and applies the post-conversion
// sign flip: FP16 negation acts on the widened value.
func h16(raw, fneg uint32) float32 {
	v := isa.F16ToF32(isa.Float16(raw & 0xffff))
	return math.Float32frombits(math.Float32bits(v) ^ fneg)
}

func execHADD(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	n0, n1 := d.src[0].fneg, d.src[1].fneg
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = uint32(isa.F32ToF16(h16(s0[lane], n0) + h16(s1[lane], n1)))
	}
}

func execHMUL(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	n0, n1 := d.src[0].fneg, d.src[1].fneg
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = uint32(isa.F32ToF16(h16(s0[lane], n0) * h16(s1[lane], n1)))
	}
}

func execHFMA(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	s2 := d.row(b, w, 2)
	n0, n1, n2 := d.src[0].fneg, d.src[1].fneg, d.src[2].fneg
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		v := float32(math.FMA(
			float64(h16(s0[lane], n0)),
			float64(h16(s1[lane], n1)),
			float64(h16(s2[lane], n2))))
		out[lane] = uint32(isa.F32ToF16(v))
	}
}

func execIADD(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	n0, n1 := d.src[0].ineg, d.src[1].ineg
	if active == w.fullMask && !n0 && !n1 {
		for lane := range out {
			out[lane] = uint32(int32(s0[lane]) + int32(s1[lane]))
		}
		return
	}
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a, c := int32(s0[lane]), int32(s1[lane])
		if n0 {
			a = -a
		}
		if n1 {
			c = -c
		}
		out[lane] = uint32(a + c)
	}
}

func execIMUL(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	n0, n1 := d.src[0].ineg, d.src[1].ineg
	if active == w.fullMask && !n0 && !n1 {
		for lane := range out {
			out[lane] = uint32(int32(s0[lane]) * int32(s1[lane]))
		}
		return
	}
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a, c := int32(s0[lane]), int32(s1[lane])
		if n0 {
			a = -a
		}
		if n1 {
			c = -c
		}
		out[lane] = uint32(a * c)
	}
}

func execIMAD(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	s2 := d.row(b, w, 2)
	n0, n1, n2 := d.src[0].ineg, d.src[1].ineg, d.src[2].ineg
	if active == w.fullMask && !n0 && !n1 && !n2 {
		for lane := range out {
			out[lane] = uint32(int32(s0[lane])*int32(s1[lane]) + int32(s2[lane]))
		}
		return
	}
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a, c, acc := int32(s0[lane]), int32(s1[lane]), int32(s2[lane])
		if n0 {
			a = -a
		}
		if n1 {
			c = -c
		}
		if n2 {
			acc = -acc
		}
		out[lane] = uint32(a*c + acc)
	}
}

func execIMNMX(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	wantLT := d.in.Cmp == isa.CmpLT
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a, c := int32(s0[lane]), int32(s1[lane])
		v := a
		if wantLT == (c < a) {
			v = c
		}
		out[lane] = uint32(v)
	}
}

func execLOPAND(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = s0[lane] & s1[lane]
	}
}

func execLOPOR(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = s0[lane] | s1[lane]
	}
}

func execLOPXOR(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = s0[lane] ^ s1[lane]
	}
}

func execSHFL(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = s0[lane] << (s1[lane] & 31)
	}
}

func execSHFR(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = s0[lane] >> (s1[lane] & 31)
	}
}

// The SETP handlers collect the compare results of the active lanes
// into a lane mask and merge it into the destination predicate's mask:
// inactive lanes keep their bits.

func execISETP(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	cmp := d.in.Cmp
	var res uint32
	if active == w.fullMask {
		for lane := range s0 {
			if compareI(cmp, int32(s0[lane]), int32(s1[lane])) {
				res |= 1 << lane
			}
		}
	} else {
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			if compareI(cmp, int32(s0[lane]), int32(s1[lane])) {
				res |= 1 << lane
			}
		}
	}
	w.setPred(d.in.DstP, active, res)
}

func execFSETP(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	cmp := d.in.Cmp
	var res uint32
	if active == w.fullMask {
		for lane := range s0 {
			if compareF(cmp,
				float64(math.Float32frombits(s0[lane])),
				float64(math.Float32frombits(s1[lane]))) {
				res |= 1 << lane
			}
		}
	} else {
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			if compareF(cmp,
				float64(math.Float32frombits(s0[lane])),
				float64(math.Float32frombits(s1[lane]))) {
				res |= 1 << lane
			}
		}
	}
	w.setPred(d.in.DstP, active, res)
}

func execDSETP(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	cmp := d.in.Cmp
	var res uint32
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		if compareF(cmp, d.f64at(b, w, 0, lane), d.f64at(b, w, 1, lane)) {
			res |= 1 << lane
		}
	}
	w.setPred(d.in.DstP, active, res)
}

func execHSETP(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	s0 := d.row(b, w, 0)
	s1 := d.row(b, w, 1)
	cmp := d.in.Cmp
	var res uint32
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		if compareF(cmp, float64(h16(s0[lane], 0)), float64(h16(s1[lane], 0))) {
			res |= 1 << lane
		}
	}
	w.setPred(d.in.DstP, active, res)
}

func execF2F_32to64(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	s0 := d.row(b, w, 0)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		v := float64(math.Float32frombits(s0[lane]))
		d.writeF64(b, w, lane, math.Float64bits(v))
	}
}

func execF2F_64to32(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = math.Float32bits(float32(d.f64at(b, w, 0, lane)))
	}
}

func execF2F_32to16(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = uint32(isa.F32ToF16(math.Float32frombits(s0[lane])))
	}
}

func execF2F_16to32(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = math.Float32bits(h16(s0[lane], 0))
	}
}

func execF2F_64to16(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = uint32(isa.F32ToF16(float32(d.f64at(b, w, 0, lane))))
	}
}

func execF2F_16to64(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	s0 := d.row(b, w, 0)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		d.writeF64(b, w, lane, math.Float64bits(float64(h16(s0[lane], 0))))
	}
}

func execCvtBad(e *engine, w *warpState, d *decoded, active uint32) {
	e.raiseDUE(DUEUnattributed, fmt.Sprintf("unsupported %s conversion %s->%s", d.in.Op, d.in.CvtFrom, d.in.CvtTo))
}

func execF2I(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = uint32(clampI32(math.Float32frombits(s0[lane])))
	}
}

func execI2F(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		out[lane] = math.Float32bits(float32(int32(s0[lane])))
	}
}

func execMUFU(e *engine, w *warpState, d *decoded, active uint32) {
	b := w.block
	out := d.dstRow(b, w)
	s0 := d.row(b, w, 0)
	fn := d.in.Mufu
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		x := float64(math.Float32frombits(s0[lane]))
		out[lane] = math.Float32bits(float32(mufuEval(fn, x)))
	}
}

func mufuEval(fn isa.MufuFunc, x float64) float64 {
	switch fn {
	case isa.MufuRCP:
		return 1 / x
	case isa.MufuSQRT:
		return math.Sqrt(x)
	case isa.MufuRSQ:
		return 1 / math.Sqrt(x)
	case isa.MufuEX2:
		return math.Exp2(x)
	case isa.MufuLG2:
		return math.Log2(x)
	case isa.MufuSIN:
		return math.Sin(x)
	case isa.MufuCOS:
		return math.Cos(x)
	}
	return 0
}

func execUnimplemented(e *engine, w *warpState, d *decoded, active uint32) {
	e.raiseDUE(DUEUnattributed, fmt.Sprintf("unimplemented opcode %s", d.in.Op))
}

// --- memory handlers (fault modeling inline, keyed off e.faultLane) ---

func (e *engine) faultAddr(addr uint32) uint32 {
	// SASS addresses are 64-bit; the simulated arena lives in the low 32.
	// A flip in the high word always leaves the valid range, like a
	// strike pushing a pointer out of the VA space.
	if b := e.fault.Bit & 63; b >= 32 {
		return addr | 0x8000_0000
	} else {
		return addr ^ 1<<b
	}
}

func execLDG(e *engine, w *warpState, d *decoded, active uint32) {
	in := d.in
	b := w.block
	aRow := d.row(b, w, 0)
	off := in.Srcs[1].Imm
	fl := e.faultLane
	var dstLo, dstHi []uint32
	if in.Dst != isa.RZ {
		dstLo = b.regRow(in.Dst, w.base, w.lanes)
		if in.Wide {
			dstHi = b.regRow(in.Dst+1, w.base, w.lanes)
		}
	}
	if fl == noFault && !in.Wide && dstLo != nil && active == w.fullMask {
		// Full-warp unfaulted narrow load: lane order and the
		// fail-on-first-bad-address semantics are identical to the
		// masked loop below. Coalesced (unit-stride) warps collapse to
		// one ranged copy, broadcast (one-address) warps to one load.
		a0 := aRow[0] + off
		if n := len(aRow); n > 1 {
			switch aRow[1] - aRow[0] {
			case 4:
				coalesced := true
				for lane := 2; lane < n; lane++ {
					if aRow[lane]+off != a0+uint32(4*lane) {
						coalesced = false
						break
					}
				}
				if coalesced {
					if err := e.glob.LoadRow32(a0, dstLo); err != nil {
						e.raiseAccess(err)
					}
					return
				}
			case 0:
				uniform := true
				for lane := 2; lane < n; lane++ {
					if aRow[lane] != aRow[0] {
						uniform = false
						break
					}
				}
				if uniform {
					v, err := e.glob.Load32(a0)
					if err != nil {
						e.raiseAccess(err)
						return
					}
					for lane := range dstLo {
						dstLo[lane] = v
					}
					return
				}
			}
		}
		for lane := range aRow {
			v, err := e.glob.Load32(aRow[lane] + off)
			if err != nil {
				e.raiseAccess(err)
				return
			}
			dstLo[lane] = v
		}
		return
	}
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		addr := aRow[lane] + off
		if lane == fl && e.fault.Kind == FaultAddrBit {
			addr = e.faultAddr(addr)
		}
		if in.Wide {
			lo, hi, err := e.glob.Load64(addr)
			if err != nil {
				e.raiseAccess(err)
				return
			}
			if dstLo != nil {
				dstLo[lane], dstHi[lane] = lo, hi
			}
		} else {
			v, err := e.glob.Load32(addr)
			if err != nil {
				e.raiseAccess(err)
				return
			}
			if dstLo != nil {
				dstLo[lane] = v
			}
		}
	}
}

func execLDS(e *engine, w *warpState, d *decoded, active uint32) {
	in := d.in
	b := w.block
	aRow := d.row(b, w, 0)
	off := in.Srcs[1].Imm
	fl := e.faultLane
	var dstLo, dstHi []uint32
	if in.Dst != isa.RZ {
		dstLo = b.regRow(in.Dst, w.base, w.lanes)
		if in.Wide {
			dstHi = b.regRow(in.Dst+1, w.base, w.lanes)
		}
	}
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		addr := aRow[lane] + off
		if lane == fl && e.fault.Kind == FaultAddrBit {
			addr = e.faultAddr(addr)
		}
		if in.Wide {
			lo, hi, err := b.shared.Load64(addr)
			if err != nil {
				e.raiseAccess(err)
				return
			}
			if dstLo != nil {
				dstLo[lane], dstHi[lane] = lo, hi
			}
		} else {
			v, err := b.shared.Load32(addr)
			if err != nil {
				e.raiseAccess(err)
				return
			}
			if dstLo != nil {
				dstLo[lane] = v
			}
		}
	}
}

func execSTG(e *engine, w *warpState, d *decoded, active uint32) {
	in := d.in
	b := w.block
	aRow := d.row(b, w, 0)
	off := in.Srcs[1].Imm
	fl := e.faultLane
	vreg := in.Srcs[2].Reg
	var vLo, vHi []uint32
	if vreg != isa.RZ {
		vLo = b.regRow(vreg, w.base, w.lanes)
		if in.Wide {
			vHi = b.regRow(vreg+1, w.base, w.lanes)
		}
	}
	if fl == noFault && !in.Wide && vLo != nil && active == w.fullMask {
		// Coalesced full-warp store: one ranged copy, with the same
		// first-bad-address (and partial-write) semantics as the loop.
		a0 := aRow[0] + off
		if n := len(aRow); n > 1 && aRow[1]-aRow[0] == 4 {
			coalesced := true
			for lane := 2; lane < n; lane++ {
				if aRow[lane]+off != a0+uint32(4*lane) {
					coalesced = false
					break
				}
			}
			if coalesced {
				if err := e.glob.StoreRow32(a0, vLo); err != nil {
					e.raiseAccess(err)
				}
				return
			}
		}
		for lane := range aRow {
			if err := e.glob.Store32(aRow[lane]+off, vLo[lane]); err != nil {
				e.raiseAccess(err)
				return
			}
		}
		return
	}
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		addr := aRow[lane] + off
		faulted := lane == fl
		if faulted && e.fault.Kind == FaultAddrBit {
			addr = e.faultAddr(addr)
		}
		sv := uint32(0)
		if vLo != nil {
			sv = vLo[lane]
		}
		if faulted && e.fault.Kind == FaultValueBit {
			sv ^= 1 << (e.fault.Bit & 31)
			e.fired.Bit, e.fired.Width = e.fault.Bit&31, 32
		}
		var err error
		if in.Wide {
			hi := uint32(0)
			if vHi != nil {
				hi = vHi[lane]
			}
			err = e.glob.Store64(addr, sv, hi)
		} else {
			err = e.glob.Store32(addr, sv)
		}
		if err != nil {
			e.raiseAccess(err)
			return
		}
	}
}

func execSTS(e *engine, w *warpState, d *decoded, active uint32) {
	in := d.in
	b := w.block
	aRow := d.row(b, w, 0)
	off := in.Srcs[1].Imm
	fl := e.faultLane
	vreg := in.Srcs[2].Reg
	var vLo, vHi []uint32
	if vreg != isa.RZ {
		vLo = b.regRow(vreg, w.base, w.lanes)
		if in.Wide {
			vHi = b.regRow(vreg+1, w.base, w.lanes)
		}
	}
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		addr := aRow[lane] + off
		faulted := lane == fl
		if faulted && e.fault.Kind == FaultAddrBit {
			addr = e.faultAddr(addr)
		}
		sv := uint32(0)
		if vLo != nil {
			sv = vLo[lane]
		}
		if faulted && e.fault.Kind == FaultValueBit {
			sv ^= 1 << (e.fault.Bit & 31)
			e.fired.Bit, e.fired.Width = e.fault.Bit&31, 32
		}
		var err error
		if in.Wide {
			hi := uint32(0)
			if vHi != nil {
				hi = vHi[lane]
			}
			err = b.shared.Store64(addr, sv, hi)
		} else {
			err = b.shared.Store32(addr, sv)
		}
		if err != nil {
			e.raiseAccess(err)
			return
		}
	}
}

func execRED(e *engine, w *warpState, d *decoded, active uint32) {
	in := d.in
	b := w.block
	aRow := d.row(b, w, 0)
	off := in.Srcs[1].Imm
	fl := e.faultLane
	vreg := in.Srcs[2].Reg
	var vRow []uint32
	if vreg != isa.RZ {
		vRow = b.regRow(vreg, w.base, w.lanes)
	}
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		addr := aRow[lane] + off
		if lane == fl && e.fault.Kind == FaultAddrBit {
			addr = e.faultAddr(addr)
		}
		sv := uint32(0)
		if vRow != nil {
			sv = vRow[lane]
		}
		if _, err := e.glob.AtomicAdd32(addr, sv); err != nil {
			e.raiseAccess(err)
			return
		}
	}
}

// MMA fragment layout (16x16 tiles distributed over 32 lanes):
// element (i,j), flat = i*16+j:
//
//	A/B half fragments: lane = flat/8, slot = flat%8, register = base +
//	  slot/2, half = slot%2 (low/high 16 bits);
//	FP32 fragments (FMMA inputs and all accumulators): lane = flat/8,
//	  register = base + flat%8.
func execMMA(e *engine, w *warpState, d *decoded, active uint32) {
	in := d.in
	if active != w.fullMask || w.fullMask != ^uint32(0) {
		e.raiseDUE(DUESyncError, "MMA issued by divergent or partial warp")
		return
	}
	blk := w.block
	base := w.base
	faultLane := e.faultLane
	regAt := func(lane int, r isa.Reg) uint32 { return blk.regs[int(r)*blk.threads+base+lane] }

	var a, b [16][16]float32
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			flat := i*16 + j
			lane, slot := flat/8, flat%8
			if in.Op == isa.OpHMMA {
				av := regAt(lane, in.Srcs[0].Reg+isa.Reg(slot/2))
				bv := regAt(lane, in.Srcs[1].Reg+isa.Reg(slot/2))
				sh := uint32(slot%2) * 16
				a[i][j] = isa.F16ToF32(isa.Float16(av >> sh & 0xffff))
				b[i][j] = isa.F16ToF32(isa.Float16(bv >> sh & 0xffff))
			} else {
				// FMMA: FP32 fragments cast to FP16 on the tensor core.
				av := math.Float32frombits(regAt(lane, in.Srcs[0].Reg+isa.Reg(slot)))
				bv := math.Float32frombits(regAt(lane, in.Srcs[1].Reg+isa.Reg(slot)))
				a[i][j] = isa.F16ToF32(isa.F32ToF16(av))
				b[i][j] = isa.F16ToF32(isa.F32ToF16(bv))
			}
		}
	}
	// D = A*B + C with FP32 accumulation.
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			flat := i*16 + j
			lane, slot := flat/8, flat%8
			acc := math.Float32frombits(regAt(lane, in.Srcs[2].Reg+isa.Reg(slot)))
			for k := 0; k < 16; k++ {
				acc += a[i][k] * b[k][j]
			}
			out := math.Float32bits(acc)
			if lane == faultLane && e.fault != nil && e.fault.Kind == FaultValueBit &&
				slot == e.fault.Bit/32%8 {
				out ^= 1 << (e.fault.Bit & 31)
				// Bit is drawn from [0,64), so the flip lands in the
				// first two fragment slots: a 64-bit window.
				e.fired.Bit, e.fired.Width = e.fault.Bit&63, 64
			}
			blk.regs[int(in.Dst+isa.Reg(slot))*blk.threads+base+lane] = out
		}
	}
}

func compareI(c isa.CmpOp, a, b int32) bool {
	switch c {
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpGE:
		return a >= b
	default:
		return a > b
	}
}

func compareF(c isa.CmpOp, a, b float64) bool {
	switch c {
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpGE:
		return a >= b
	default:
		return a > b
	}
}

func clampI32(f float32) int32 {
	switch {
	case f != f: // NaN
		return 0
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return math.MinInt32
	default:
		return int32(f)
	}
}

func (e *engine) special(w *warpState, t int, sr isa.SpecialReg) uint32 {
	blk := w.block
	switch sr {
	case isa.SrTidX:
		return uint32(t)
	case isa.SrTidY:
		return 0
	case isa.SrCtaidX:
		return uint32(blk.ctaX)
	case isa.SrCtaidY:
		return uint32(blk.ctaY)
	case isa.SrNtidX:
		return uint32(blk.threads)
	case isa.SrNtidY:
		return 1
	case isa.SrNctaidX:
		return uint32(e.cfg.GridX)
	case isa.SrNctaidY:
		return uint32(e.cfg.GridY)
	case isa.SrLaneID:
		return uint32(t % 32)
	case isa.SrWarpID:
		return uint32(w.widx)
	default:
		return 0
	}
}
