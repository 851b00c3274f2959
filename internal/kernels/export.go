package kernels

import (
	"math"

	"gpurel/internal/asm"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// Exported helpers for sibling packages (internal/microbench) that
// author kernels with the same precision abstraction the workloads use.

// EmitGID emits the global-thread-id computation.
func EmitGID(b *asm.Builder) isa.Reg { return emitGID(b) }

// EmitAddr emits base + idx*scale into a fresh register.
func EmitAddr(b *asm.Builder, idx isa.Reg, base uint32, scale int32) isa.Reg {
	return emitAddr(b, idx, base, scale)
}

// Size returns the element size in bytes.
func (e Elem) Size() int32 { return e.size }

// DType returns the element's data type.
func (e Elem) DType() isa.DType { return e.dt }

// EncodeFloat quantizes a float64 to the working precision and returns
// its raw memory representation (one or two 32-bit words, little end
// first in the low bits).
func (e Elem) EncodeFloat(v float64) uint64 {
	switch e.dt {
	case isa.F16:
		return uint64(isa.F32ToF16(float32(v)))
	case isa.F64:
		return math.Float64bits(v)
	default:
		return uint64(math.Float32bits(float32(v)))
	}
}

// DecodeFloat converts a raw representation back to float64 exactly.
func (e Elem) DecodeFloat(raw uint64) float64 {
	switch e.dt {
	case isa.F16:
		return float64(isa.F16ToF32(isa.Float16(raw & 0xffff)))
	case isa.F64:
		return math.Float64frombits(raw)
	default:
		return float64(math.Float32frombits(uint32(raw)))
	}
}

// StoreRaw writes a raw element representation into global memory.
func (e Elem) StoreRaw(g *mem.Global, addr uint32, raw uint64) {
	g.SetWord(addr, uint32(raw))
	if e.dt == isa.F64 {
		g.SetWord(addr+4, uint32(raw>>32))
	}
}

// LoadRaw reads a raw element representation from global memory.
func (e Elem) LoadRaw(g *mem.Global, addr uint32) uint64 {
	raw := uint64(g.Word(addr))
	if e.dt == isa.F64 {
		raw |= uint64(g.Word(addr+4)) << 32
	}
	if e.dt == isa.F16 {
		raw &= 0xffff
	}
	return raw
}

// HostAdd mirrors the device addition in the working precision.
func (e Elem) HostAdd(a, b float64) float64 { return float64(e.hAdd(hval(a), hval(b))) }

// HostMul mirrors the device multiplication.
func (e Elem) HostMul(a, b float64) float64 { return float64(e.hMul(hval(a), hval(b))) }

// HostFMA mirrors the device fused multiply-add.
func (e Elem) HostFMA(a, b, c float64) float64 {
	return float64(e.hFMA(hval(a), hval(b), hval(c)))
}
