package trace

// Emitter buffers synthesized instructions. Kernels append to it
// through typed helpers; the workload generator drains the buffer.
//
// Every static emission site passes a stable PC so that PC-indexed
// hardware structures (stride tables, critical-load tables, TACT
// tables) see the same identities across loop iterations.
type Emitter struct {
	Buf []Inst
	RNG *RNG
}

// emitCap is an emitter's initial buffer capacity. The workload
// generator empties the buffer before every kernel Emit call, and no
// registered kernel emits more than 113 instructions per call
// (TestEmitBufferNeverGrows walks every workload), so the buffer never
// grows. One is built per generator, so once per job.
const emitCap = 256

// NewEmitter returns an emitter using the given RNG for synthetic
// branch outcomes.
func NewEmitter(rng *RNG) *Emitter {
	return &Emitter{RNG: rng, Buf: make([]Inst, 0, emitCap)}
}

func (e *Emitter) emit(i Inst) { e.Buf = append(e.Buf, i) }

// ALU emits a 1-cycle integer op dst = f(s1, s2).
func (e *Emitter) ALU(pc uint64, dst, s1, s2 int8) {
	e.emit(Inst{PC: pc, Op: OpALU, Dst: dst, Src1: s1, Src2: s2})
}

// IMul emits a 3-cycle integer multiply.
func (e *Emitter) IMul(pc uint64, dst, s1, s2 int8) {
	e.emit(Inst{PC: pc, Op: OpIMul, Dst: dst, Src1: s1, Src2: s2})
}

// IDiv emits an 18-cycle integer divide.
func (e *Emitter) IDiv(pc uint64, dst, s1, s2 int8) {
	e.emit(Inst{PC: pc, Op: OpIDiv, Dst: dst, Src1: s1, Src2: s2})
}

// FAdd emits a 3-cycle floating-point add.
func (e *Emitter) FAdd(pc uint64, dst, s1, s2 int8) {
	e.emit(Inst{PC: pc, Op: OpFAdd, Dst: dst, Src1: s1, Src2: s2})
}

// FMul emits a 4-cycle floating-point multiply.
func (e *Emitter) FMul(pc uint64, dst, s1, s2 int8) {
	e.emit(Inst{PC: pc, Op: OpFMul, Dst: dst, Src1: s1, Src2: s2})
}

// FDiv emits a 20-cycle floating-point divide.
func (e *Emitter) FDiv(pc uint64, dst, s1, s2 int8) {
	e.emit(Inst{PC: pc, Op: OpFDiv, Dst: dst, Src1: s1, Src2: s2})
}

// Load emits a load of data from addr into dst. addrSrc names the
// register whose value the address computation consumed (NoReg if the
// address is loop-invariant or immediate-derived).
func (e *Emitter) Load(pc uint64, dst, addrSrc int8, addr, data uint64) {
	e.emit(Inst{PC: pc, Op: OpLoad, Dst: dst, Src1: addrSrc, Src2: NoReg, Addr: addr, Data: data})
}

// Store emits a store of register val to addr; addrSrc is the address
// dependency (NoReg if none).
func (e *Emitter) Store(pc uint64, val, addrSrc int8, addr uint64) {
	e.emit(Inst{PC: pc, Op: OpStore, Dst: NoReg, Src1: val, Src2: addrSrc, Addr: addr})
}

// Branch emits a conditional branch reading cond, with the given
// outcome and misprediction flag.
func (e *Emitter) Branch(pc uint64, cond int8, taken, mispred bool) {
	e.emit(Inst{PC: pc, Op: OpBranch, Dst: NoReg, Src1: cond, Src2: NoReg, Taken: taken, Mispred: mispred})
}

// Nop emits an instruction with no sources or destination (models
// address-generation filler and immediate moves).
func (e *Emitter) Nop(pc uint64) {
	e.emit(Inst{PC: pc, Op: OpNop, Dst: NoReg, Src1: NoReg, Src2: NoReg})
}

// ChainALU emits n serially dependent ALU ops on reg (a latency chain
// of n cycles rooted at whatever produced reg).
func (e *Emitter) ChainALU(pcBase uint64, reg int8, n int) {
	for k := 0; k < n; k++ {
		e.ALU(pcBase+uint64(k)*4, reg, reg, NoReg)
	}
}

// CodeRegion is a contiguous range of instruction addresses owned by
// one kernel. PC(off) yields the address of the off-th static
// instruction site (4-byte instructions).
type CodeRegion struct {
	Base uint64
	Size uint64
}

// PC returns the address of static site off within the region, wrapping
// at the region size so code footprint is bounded.
func (r CodeRegion) PC(off int) uint64 {
	span := r.Size
	if span == 0 {
		span = 4096
	}
	return r.Base + (uint64(off)*4)%span
}

// Region is a contiguous data address range owned by one kernel.
type Region struct {
	Base uint64
	Size uint64
}

// At returns Base + (off mod Size), 8-byte aligned.
func (r Region) At(off uint64) uint64 {
	return r.Base + (off%r.Size)&^7
}

// Lines returns the number of cache lines spanned by the region.
func (r Region) Lines() uint64 { return r.Size / CacheLineSize }

// AddrSpace hands out non-overlapping data and code regions for the
// kernels of one workload.
type AddrSpace struct {
	nextData uint64
	nextCode uint64
}

// NewAddrSpace returns an allocator rooted at the standard workload
// bases (heap at 4GB, code at 1GB).
func NewAddrSpace() *AddrSpace {
	return &AddrSpace{nextData: 1 << 32, nextCode: 1 << 30}
}

// Data allocates a data region of the given size (rounded up to a
// cache line) with a one-page guard gap.
func (a *AddrSpace) Data(size uint64) Region {
	if size < CacheLineSize {
		size = CacheLineSize
	}
	size = (size + CacheLineSize - 1) &^ uint64(CacheLineSize-1)
	r := Region{Base: a.nextData, Size: size}
	a.nextData += size + PageSize
	return r
}

// Code allocates a code region of the given byte size (rounded up to a
// cache line).
func (a *AddrSpace) Code(size uint64) CodeRegion {
	if size < CacheLineSize {
		size = CacheLineSize
	}
	size = (size + CacheLineSize - 1) &^ uint64(CacheLineSize-1)
	r := CodeRegion{Base: a.nextCode, Size: size}
	a.nextCode += size + PageSize
	return r
}
