package ir

import (
	"strings"
	"testing"
)

func TestBuilderConveniences(t *testing.T) {
	b := NewBuilder("f", 1)
	b.SetTypeSig("i64(ptr)")
	r := b.Const(1)
	b.ConstInto(r, 42)
	b.Mov(b.Reg(), R(r))
	b.StoreLocal("p0", Imm(9))
	v := b.LoadLocal("p0")
	b.Ret(R(v))
	f := b.Build()

	if f.TypeSig != "i64(ptr)" {
		t.Fatalf("sig = %q", f.TypeSig)
	}
	if f.NumRegs < 2 {
		t.Fatalf("regs = %d", f.NumRegs)
	}
}

func TestBuilderPanicsAreProgrammerErrors(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate local", func() {
		b := NewBuilder("f", 0)
		b.Local("x", 8)
		b.Local("x", 8)
	})
	mustPanic("duplicate label", func() {
		b := NewBuilder("f", 0)
		b.Label("l")
		b.Label("l")
	})
	mustPanic("unknown slot", func() {
		b := NewBuilder("f", 0)
		b.Lea("ghost", 0)
	})
}

func TestInstrStringsCoverEveryKind(t *testing.T) {
	ins := []Instr{
		{Kind: Const, Dst: 1, Imm: 5},
		{Kind: Mov, Dst: 1, Src: R(0)},
		{Kind: Bin, Dst: 2, Op: OpXor, A: R(0), B: Imm(3)},
		{Kind: Load, Dst: 1, Addr: 0, Off: -8, Size: 4},
		{Kind: Store, Addr: 0, Off: 16, Src: Imm(1), Size: 2},
		{Kind: LocalAddr, Dst: 1, Slot: 2, Off: 4},
		{Kind: GlobalAddr, Dst: 1, Sym: "g", Off: 0},
		{Kind: FuncAddr, Dst: 1, Sym: "f"},
		{Kind: Call, Dst: 1, Sym: "f", Args: []Operand{Imm(1)}},
		{Kind: CallInd, Dst: 1, Target: 3, TypeSig: "i64()"},
		{Kind: Syscall, Dst: 1, Args: []Operand{Imm(60)}},
		{Kind: Jump, Label: "x"},
		{Kind: BranchNZ, Src: R(1), ToIndex: 4},
		{Kind: Ret, Src: Imm(0)},
		{Kind: Intrinsic, IK: CtxWriteMem, Addr: 1, Size: 8},
		{Kind: Intrinsic, IK: CtxBindMem, Pos: 2, Addr: 1, BindSite: 9},
		{Kind: Intrinsic, IK: CtxBindConst, Pos: 1, Imm: -1, BindSite: 9},
	}
	for i := range ins {
		s := ins[i].String()
		if s == "" || strings.HasPrefix(s, "<") {
			t.Errorf("instr %d renders as %q", i, s)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestFrameSlotsIncludeParams(t *testing.T) {
	b := NewBuilder("f", 2)
	b.Local("x", 8)
	b.Ret(Imm(0))
	f := b.Build()
	slots := f.FrameSlots()
	if len(slots) != 3 || slots[0].Name != "p0" || slots[2].Name != "x" {
		t.Fatalf("slots = %+v", slots)
	}
}
