// Package device describes the simulated GPUs: the Kepler-class Tesla K40c
// and the Volta-class Tesla V100 studied in the paper. A Device carries
//
//   - the architectural parameters the SIMT simulator needs (SM count,
//     schedulers, functional-unit mix, latency and issue-throughput tables,
//     occupancy limits), and
//   - the silicon sensitivity model (per-resource neutron cross-sections),
//     which is the hidden ground truth of the simulated world. Only the
//     beam campaign reads it; the fault injectors and the FIT predictor
//     observe outcomes, exactly like the paper's instruments.
package device

import (
	"fmt"
	"strings"

	"gpurel/internal/isa"
)

// Arch identifies a GPU micro-architecture generation.
type Arch uint8

// Architectures studied by the paper.
const (
	Kepler Arch = iota
	Volta
)

// String returns the architecture name.
func (a Arch) String() string {
	if a == Kepler {
		return "Kepler"
	}
	return "Volta"
}

// Unit identifies a functional-unit pool inside an SM.
type Unit uint8

// Functional-unit pools.
const (
	UnitFP32 Unit = iota
	UnitFP64
	UnitFP16
	UnitINT
	UnitSFU
	UnitLDST
	UnitTensor
	UnitCount
)

// String returns a short pool name.
func (u Unit) String() string {
	return [...]string{"FP32", "FP64", "FP16", "INT", "SFU", "LDST", "TENSOR"}[u]
}

// Device is a simulated GPU model.
type Device struct {
	Name    string
	Arch    Arch
	Process string // fabrication node, e.g. "28nm planar", "16nm FinFET"

	NumSMs            int
	WarpSize          int
	SchedulersPerSM   int // each picks one warp per cycle
	IssuePerScheduler int // instructions dual-issued from the selected warp

	MaxWarpsPerSM    int
	MaxBlocksPerSM   int
	RegistersPerSM   int // 32-bit registers
	SharedMemPerSM   int // bytes
	MaxRegsPerThread int

	// UnitsPerSM is the number of lanes in each functional-unit pool.
	UnitsPerSM [UnitCount]int

	// SharedINTFP marks architectures (Kepler) where integer operations
	// execute on the FP32 cores instead of a dedicated INT pool.
	SharedINTFP bool

	HasFP16   bool
	HasTensor bool

	// GlobalMemBytes is the simulated global-memory capacity.
	GlobalMemBytes int

	Silicon *SiliconModel
}

// CapacityScale divides the per-SM residency capacities (warps,
// registers, shared memory, blocks) of both device models. Workload
// inputs are scaled down ~1/8 from the paper's so that 50,000-run
// campaigns fit a CPU budget (DESIGN.md §5); scaling the residency
// capacities by the same factor keeps the occupancy and IPC regimes of
// Table I intact (a register-hungry GEMM still pins occupancy near 1/8,
// a small stencil still saturates its SM). Functional-unit mixes, SM
// counts, warp size, scheduler structure, and latencies stay authentic.
const CapacityScale = 8

// K40c returns the Kepler-generation Tesla K40c model: 15 SMs with 192
// FP32 cores each (2,880 CUDA cores), integer math sharing the FP32
// datapath, SECDED ECC on register file / shared memory / caches, 28 nm
// planar CMOS. Per-SM residency capacities are divided by CapacityScale.
func K40c() *Device {
	d := &Device{
		Name:              "Tesla K40c",
		Arch:              Kepler,
		Process:           "28nm planar CMOS",
		NumSMs:            15,
		WarpSize:          32,
		SchedulersPerSM:   4,
		IssuePerScheduler: 2,
		MaxWarpsPerSM:     64 / CapacityScale,
		MaxBlocksPerSM:    16 / CapacityScale * 2, // 4: small blocks still co-resident
		RegistersPerSM:    65536 / CapacityScale,
		SharedMemPerSM:    48 * 1024 / CapacityScale,
		MaxRegsPerThread:  255,
		SharedINTFP:       true,
		HasFP16:           false,
		HasTensor:         false,
		GlobalMemBytes:    1 << 30,
	}
	d.UnitsPerSM = [UnitCount]int{
		UnitFP32:   192,
		UnitFP64:   64,
		UnitFP16:   0,
		UnitINT:    160, // shares the FP32 datapath at reduced efficiency
		UnitSFU:    32,
		UnitLDST:   32,
		UnitTensor: 0,
	}
	d.Silicon = keplerSilicon()
	return d
}

// V100 returns the Volta-generation Tesla V100 model: 80 SMs, each with 64
// FP32 + 64 INT32 + 32 FP64 cores and 8 tensor cores, dedicated FP16
// throughput, 16 nm FinFET.
func V100() *Device {
	d := &Device{
		Name:              "Tesla V100",
		Arch:              Volta,
		Process:           "16nm FinFET",
		NumSMs:            80,
		WarpSize:          32,
		SchedulersPerSM:   4,
		IssuePerScheduler: 1, // Volta schedulers single-issue per cycle
		MaxWarpsPerSM:     64 / CapacityScale,
		MaxBlocksPerSM:    32 / CapacityScale,
		RegistersPerSM:    65536 / CapacityScale,
		SharedMemPerSM:    96 * 1024 / CapacityScale,
		MaxRegsPerThread:  255,
		SharedINTFP:       false,
		HasFP16:           true,
		HasTensor:         true,
		GlobalMemBytes:    1 << 30,
	}
	d.UnitsPerSM = [UnitCount]int{
		UnitFP32:   64,
		UnitFP64:   32,
		UnitFP16:   64, // FP16 executes on the FP32 cores at 2x rate
		UnitINT:    64,
		UnitSFU:    16,
		UnitLDST:   32,
		UnitTensor: 8,
	}
	d.Silicon = voltaSilicon()
	return d
}

// TitanV returns the Titan V, the paper's second Volta board (§III-A):
// the same GV100 silicon as the Tesla V100 with 80 SMs enabled and a
// smaller frame buffer. It shares the V100's silicon sensitivity model;
// the paper treats the two interchangeably for the Volta results.
func TitanV() *Device {
	d := V100()
	d.Name = "Titan V"
	d.GlobalMemBytes = 3 << 28 // 12 GB class board, scaled like the rest
	return d
}

// ByName resolves a device by any of its names, case-insensitively and
// ignoring surrounding space: the architecture (kepler, volta), the
// short board name (k40c, v100, titanv), or the full Name (Tesla K40c,
// Tesla V100, Titan V).
func ByName(name string) (*Device, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "kepler", "k40c", "tesla k40c":
		return K40c(), nil
	case "volta", "v100", "tesla v100":
		return V100(), nil
	case "titanv", "titan v":
		return TitanV(), nil
	}
	return nil, fmt.Errorf("unknown device %q (want kepler, volta or titanv)", name)
}

// UnitFor maps an opcode to the functional-unit pool that executes it.
func (d *Device) UnitFor(op isa.Op) Unit {
	switch op {
	case isa.OpFADD, isa.OpFMUL, isa.OpFFMA, isa.OpFSETP,
		isa.OpF2F, isa.OpF2I, isa.OpI2F:
		return UnitFP32
	case isa.OpDADD, isa.OpDMUL, isa.OpDFMA, isa.OpDSETP:
		return UnitFP64
	case isa.OpHADD, isa.OpHMUL, isa.OpHFMA, isa.OpHSETP:
		if d.HasFP16 {
			return UnitFP16
		}
		return UnitFP32
	case isa.OpIADD, isa.OpIMUL, isa.OpIMAD, isa.OpIMNMX,
		isa.OpISETP, isa.OpLOP, isa.OpSHF:
		if d.SharedINTFP {
			return UnitFP32
		}
		return UnitINT
	case isa.OpMUFU:
		return UnitSFU
	case isa.OpHMMA, isa.OpFMMA:
		return UnitTensor
	case isa.OpLDG, isa.OpSTG, isa.OpLDS, isa.OpSTS, isa.OpRED:
		return UnitLDST
	default:
		// Moves, control flow, S2R, barriers: issue through the integer /
		// dispatch path.
		if d.SharedINTFP {
			return UnitFP32
		}
		return UnitINT
	}
}

// Latency returns the result latency of the opcode in cycles: the number
// of cycles before a dependent instruction may issue.
func (d *Device) Latency(op isa.Op) int {
	kepler := d.Arch == Kepler
	switch op {
	case isa.OpLDG, isa.OpSTG, isa.OpRED:
		// Effective cache-resident latency: the scaled workloads fit the
		// L1/L2 the way the paper's full-size inputs mostly do, so the
		// model charges a cached latency rather than a DRAM round trip.
		if kepler {
			return 80
		}
		return 60
	case isa.OpLDS, isa.OpSTS:
		if kepler {
			return 26
		}
		return 20
	case isa.OpDADD, isa.OpDMUL, isa.OpDFMA, isa.OpDSETP:
		if kepler {
			return 10
		}
		return 8
	case isa.OpMUFU:
		return 16
	case isa.OpHMMA, isa.OpFMMA:
		return 16
	case isa.OpBAR:
		return 4
	case isa.OpIMUL, isa.OpIMAD:
		if kepler {
			return 9
		}
		return 5
	default:
		if kepler {
			return 9
		}
		return 4
	}
}

// IssueSlots returns how many warp-instructions of the given unit an SM can
// issue per cycle (the quantized throughput of the pool).
func (d *Device) IssueSlots(u Unit) int {
	n := d.UnitsPerSM[u] / d.WarpSize
	if u == UnitTensor && d.UnitsPerSM[u] > 0 {
		// The 8 tensor cores of a Volta SM jointly retire one warp-wide
		// MMA per cycle.
		return 1
	}
	if n < 1 && d.UnitsPerSM[u] > 0 {
		n = 1
	}
	return n
}

// Occupancy describes the residency of one kernel launch on this device.
type Occupancy struct {
	BlocksPerSM      int
	WarpsPerBlock    int
	ActiveWarpsPerSM int
	TheoreticalOcc   float64 // active warps / max warps
	LimitedBy        string
}

// OccupancyFor computes block residency per SM for a launch of the given
// block size (threads), register and shared-memory footprint, mirroring
// the CUDA occupancy calculator.
func (d *Device) OccupancyFor(threadsPerBlock, regsPerThread, sharedPerBlock int) (Occupancy, error) {
	if threadsPerBlock <= 0 {
		return Occupancy{}, fmt.Errorf("device: non-positive block size %d", threadsPerBlock)
	}
	if regsPerThread > d.MaxRegsPerThread {
		return Occupancy{}, fmt.Errorf("device: %d registers/thread exceeds limit %d",
			regsPerThread, d.MaxRegsPerThread)
	}
	if sharedPerBlock > d.SharedMemPerSM {
		return Occupancy{}, fmt.Errorf("device: %dB shared/block exceeds SM capacity %dB",
			sharedPerBlock, d.SharedMemPerSM)
	}
	warpsPerBlock := (threadsPerBlock + d.WarpSize - 1) / d.WarpSize

	limit := d.MaxBlocksPerSM
	limitedBy := "blocks"
	if byWarps := d.MaxWarpsPerSM / warpsPerBlock; byWarps < limit {
		limit, limitedBy = byWarps, "warps"
	}
	if regsPerThread > 0 {
		regsPerBlock := regsPerThread * warpsPerBlock * d.WarpSize
		if byRegs := d.RegistersPerSM / regsPerBlock; byRegs < limit {
			limit, limitedBy = byRegs, "registers"
		}
	}
	if sharedPerBlock > 0 {
		if byShared := d.SharedMemPerSM / sharedPerBlock; byShared < limit {
			limit, limitedBy = byShared, "shared memory"
		}
	}
	if limit < 1 {
		return Occupancy{}, fmt.Errorf("device: block (%d threads, %d regs, %dB shared) cannot fit on an SM",
			threadsPerBlock, regsPerThread, sharedPerBlock)
	}
	active := limit * warpsPerBlock
	return Occupancy{
		BlocksPerSM:      limit,
		WarpsPerBlock:    warpsPerBlock,
		ActiveWarpsPerSM: active,
		TheoreticalOcc:   float64(active) / float64(d.MaxWarpsPerSM),
		LimitedBy:        limitedBy,
	}, nil
}
