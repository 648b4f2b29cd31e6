// Package trace defines the dynamic instruction stream consumed by the
// timing model, plus deterministic generators for synthesizing
// workloads. A trace instruction carries architectural-register data
// dependencies (16 integer registers), memory addresses for loads and
// stores, loaded data values (needed by the TACT-Feeder model) and
// branch outcome/misprediction flags.
package trace

// Op classifies a dynamic instruction. The class determines the base
// execution latency in the core model; loads and code fetches get their
// latency from the cache hierarchy.
type Op uint8

// Instruction classes.
const (
	OpALU    Op = iota // simple integer op, 1 cycle
	OpIMul             // integer multiply, 3 cycles
	OpIDiv             // integer divide, 18 cycles
	OpFAdd             // FP add/sub, 3 cycles
	OpFMul             // FP multiply, 4 cycles
	OpFDiv             // FP divide, 20 cycles
	OpLoad             // memory load, latency from hierarchy
	OpStore            // memory store, retired at commit
	OpBranch           // conditional/indirect branch, 1 cycle
	OpNop              // no destination, no sources
	opCount
)

// String returns a short mnemonic for the op class.
func (o Op) String() string {
	switch o {
	case OpALU:
		return "alu"
	case OpIMul:
		return "imul"
	case OpIDiv:
		return "idiv"
	case OpFAdd:
		return "fadd"
	case OpFMul:
		return "fmul"
	case OpFDiv:
		return "fdiv"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	case OpNop:
		return "nop"
	}
	return "?"
}

// NumOps is the number of instruction classes.
const NumOps = int(opCount)

// NumArchRegs is the number of architectural integer registers visible
// to the dependency model (mirrors x86-64's 16 GPRs).
const NumArchRegs = 16

// NoReg marks an absent register operand.
const NoReg int8 = -1

// Inst is one dynamic instruction in the trace.
type Inst struct {
	PC   uint64 // instruction address (stable per static site)
	Addr uint64 // effective address (loads/stores)
	Data uint64 // value loaded (loads only); drives feeder patterns

	Op         Op
	Dst        int8 // destination arch register, NoReg if none
	Src1, Src2 int8 // source arch registers, NoReg if absent

	Taken   bool // branch outcome
	Mispred bool // branch was mispredicted
}

// IsMem reports whether the instruction accesses data memory.
func (i *Inst) IsMem() bool { return i.Op == OpLoad || i.Op == OpStore }

// Generator produces an instruction stream. Implementations must be
// deterministic: Reset followed by N calls to Next always yields the
// same N instructions.
type Generator interface {
	// Name identifies the workload (e.g. "mcf").
	Name() string
	// Category is the workload class ("ISPEC", "FSPEC", "HPC",
	// "server", "client").
	Category() string
	// Reset restarts the stream from the beginning.
	Reset()
	// Next fills in the next instruction. It returns false when the
	// stream is exhausted; workload streams are effectively infinite
	// and always return true.
	Next(i *Inst) bool
}

// CacheLineSize is the line size, in bytes, assumed throughout.
const CacheLineSize = 64

// PageSize is the (small) page size used by the cross-association
// prefetch logic.
const PageSize = 4096

// PageAddr returns the 4KB-page-aligned address of a.
func PageAddr(a uint64) uint64 { return a &^ uint64(PageSize-1) }
