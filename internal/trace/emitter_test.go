package trace

import (
	"testing"
	"testing/quick"
)

func TestEmitterOps(t *testing.T) {
	e := NewEmitter(NewRNG(1))
	e.ALU(100, 1, 2, 3)
	e.IMul(104, 1, 2, NoReg)
	e.IDiv(108, 1, 2, NoReg)
	e.FAdd(112, 1, 2, 3)
	e.FMul(116, 1, 2, 3)
	e.FDiv(120, 1, 2, 3)
	e.Load(124, 4, 5, 0xABC0, 77)
	e.Store(128, 4, 5, 0xDEF0)
	e.Branch(132, 4, true, false)
	e.Nop(136)

	wantOps := []Op{OpALU, OpIMul, OpIDiv, OpFAdd, OpFMul, OpFDiv, OpLoad, OpStore, OpBranch, OpNop}
	if len(e.Buf) != len(wantOps) {
		t.Fatalf("emitted %d instructions, want %d", len(e.Buf), len(wantOps))
	}
	for i, op := range wantOps {
		if e.Buf[i].Op != op {
			t.Errorf("inst %d: op = %v, want %v", i, e.Buf[i].Op, op)
		}
	}
	ld := e.Buf[6]
	if ld.Addr != 0xABC0 || ld.Data != 77 || ld.Dst != 4 || ld.Src1 != 5 {
		t.Errorf("load fields wrong: %+v", ld)
	}
	br := e.Buf[8]
	if !br.Taken || br.Mispred {
		t.Errorf("branch flags wrong: %+v", br)
	}
}

func TestChainALU(t *testing.T) {
	e := NewEmitter(NewRNG(1))
	e.ChainALU(0x1000, 3, 5)
	if len(e.Buf) != 5 {
		t.Fatalf("ChainALU emitted %d, want 5", len(e.Buf))
	}
	for i, in := range e.Buf {
		if in.Dst != 3 || in.Src1 != 3 {
			t.Errorf("chain link %d not self-dependent: %+v", i, in)
		}
		if in.PC != 0x1000+uint64(i)*4 {
			t.Errorf("chain link %d PC = %#x", i, in.PC)
		}
	}
}

func TestCodeRegionPCWraps(t *testing.T) {
	r := CodeRegion{Base: 0x4000, Size: 64}
	if r.PC(0) != 0x4000 {
		t.Errorf("PC(0) = %#x", r.PC(0))
	}
	if r.PC(16) != 0x4000 {
		t.Errorf("PC(16) should wrap to base, got %#x", r.PC(16))
	}
	if r.PC(3) != 0x400C {
		t.Errorf("PC(3) = %#x", r.PC(3))
	}
}

func TestRegionAt(t *testing.T) {
	r := Region{Base: 0x10000, Size: 256}
	if a := r.At(0); a != 0x10000 {
		t.Errorf("At(0) = %#x", a)
	}
	if a := r.At(256); a != 0x10000 {
		t.Errorf("At wraps: got %#x", a)
	}
	if a := r.At(13); a != 0x10008 {
		t.Errorf("At(13) should align to 8: got %#x", a)
	}
}

func TestRegionAtProperty(t *testing.T) {
	f := func(base, size, off uint64) bool {
		size = size%(1<<20) + 64
		base = base % (1 << 40)
		r := Region{Base: base &^ 63, Size: size &^ 63}
		if r.Size == 0 {
			r.Size = 64
		}
		a := r.At(off)
		return a >= r.Base && a < r.Base+r.Size && a%8 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrSpaceNonOverlapping(t *testing.T) {
	sp := NewAddrSpace()
	var regs []Region
	for i := 0; i < 50; i++ {
		regs = append(regs, sp.Data(uint64(i*1000+64)))
	}
	for i := range regs {
		for j := i + 1; j < len(regs); j++ {
			a, b := regs[i], regs[j]
			if a.Base < b.Base+b.Size && b.Base < a.Base+a.Size {
				t.Fatalf("regions %d and %d overlap: %+v %+v", i, j, a, b)
			}
		}
	}
}

func TestAddrSpaceCodeDataDisjoint(t *testing.T) {
	sp := NewAddrSpace()
	c := sp.Code(1 << 20)
	d := sp.Data(1 << 20)
	if c.Base+c.Size > d.Base && d.Base+d.Size > c.Base {
		t.Fatalf("code %+v overlaps data %+v", c, d)
	}
}

func TestPageAddr(t *testing.T) {
	if PageAddr(0x12345) != 0x12000 {
		t.Errorf("PageAddr: %#x", PageAddr(0x12345))
	}
}
