package ir

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// buildTestProgram assembles a small two-function program with a global, a
// syscall wrapper, and both call flavours.
func buildTestProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram()
	p.AddGlobal(&Global{Name: "msg", Size: 16, Init: []byte("hi\x00")})

	w := NewBuilder("sys_write", 3)
	a0 := w.LoadLocal("p0")
	a1 := w.LoadLocal("p1")
	a2 := w.LoadLocal("p2")
	w.Syscall(1, R(a0), R(a1), R(a2))
	w.Ret(Imm(0))
	p.AddFunc(w.Build())

	m := NewBuilder("main", 0)
	m.Local("buf", 32)
	buf := m.Lea("buf", 0)
	m.Store(buf, 0, Imm(42), 8)
	v := m.Load(buf, 0, 8)
	fp := m.FuncAddr("sys_write")
	m.CallInd(fp, "i64(i64,i64,i64)", Imm(1), R(buf), R(v))
	g := m.GlobalLea("msg", 0)
	m.Call("sys_write", Imm(1), R(g), Imm(3))
	m.Label("loop")
	c := m.Bin(OpEq, R(v), Imm(42))
	m.BranchNZ(R(c), "done")
	m.Jump("loop")
	m.Label("done")
	m.Ret(Imm(0))
	p.AddFunc(m.Build())

	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p
}

func TestLinkAssignsDisjointAddresses(t *testing.T) {
	p := buildTestProgram(t)
	w, m := p.Func("sys_write"), p.Func("main")
	if w.Base < CodeBase || m.Base < CodeBase {
		t.Fatalf("function bases below CodeBase: %#x %#x", w.Base, m.Base)
	}
	wEnd := w.Base + uint64(len(w.Code))*InstrSize
	if m.Base < wEnd {
		t.Fatalf("main base %#x overlaps sys_write end %#x", m.Base, wEnd)
	}
	if g := p.GlobalByName("msg"); g.Addr != DataBase {
		t.Fatalf("first global at %#x, want %#x", g.Addr, DataBase)
	}
}

func TestFuncAtRoundTrip(t *testing.T) {
	p := buildTestProgram(t)
	for _, f := range p.Funcs {
		for i := range f.Code {
			got, idx := p.FuncAt(f.InstrAddr(i))
			if got != f || idx != i {
				t.Fatalf("FuncAt(%#x) = %v,%d want %s,%d", f.InstrAddr(i), got, idx, f.Name, i)
			}
		}
	}
	if f, _ := p.FuncAt(0xdeadbeef); f != nil {
		t.Fatalf("FuncAt(non-code) = %s, want nil", f.Name)
	}
	// Misaligned addresses are not instruction boundaries.
	m := p.Func("main")
	if f, _ := p.FuncAt(m.Base + 1); f != nil {
		t.Fatal("FuncAt(misaligned) should be nil")
	}
}

func TestSlotLayout(t *testing.T) {
	b := NewBuilder("f", 2)
	b.Local("small", 3) // padded to 8
	b.Local("buf", 16)
	b.Ret(Imm(0))
	f := b.Build()

	if got := f.SlotDisp(0); got != -40 {
		t.Fatalf("p0 disp = %d", got)
	}
	if got := f.SlotDisp(1); got != -32 {
		t.Fatalf("p1 disp = %d", got)
	}
	if got := f.SlotDisp(2); got != -24 {
		t.Fatalf("small disp = %d", got)
	}
	if got := f.SlotDisp(3); got != -16 {
		t.Fatalf("buf disp = %d", got)
	}
	if got := f.FrameLocalSize(); got != 40 {
		t.Fatalf("frame size = %d, want 40", got)
	}
	if got := f.SlotIndex("buf"); got != 3 {
		t.Fatalf("SlotIndex(buf) = %d", got)
	}
	if got := f.SlotIndex("nope"); got != -1 {
		t.Fatalf("SlotIndex(nope) = %d", got)
	}
}

func TestSyscallWrapperDetection(t *testing.T) {
	p := buildTestProgram(t)
	w := p.Func("sys_write")
	if nr, ok := SyscallNumber(w); !ok || nr != 1 {
		t.Fatalf("SyscallNumber = %d,%v", nr, ok)
	}
	m := p.Func("main")
	if _, ok := SyscallNumber(m); ok {
		t.Fatal("SyscallNumber(main) ok")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Program
		want  string
	}{
		{"missing entry", func() *Program {
			p := NewProgram()
			b := NewBuilder("f", 0)
			b.Ret(Imm(0))
			p.AddFunc(b.Build())
			return p
		}, "entry function"},
		{"bad register", func() *Program {
			p := NewProgram()
			b := NewBuilder("main", 0)
			b.Emit(Instr{Kind: Mov, Dst: 99, Src: Imm(1)})
			b.Ret(Imm(0))
			p.AddFunc(b.Build())
			return p
		}, "out of range"},
		{"undefined callee", func() *Program {
			p := NewProgram()
			b := NewBuilder("main", 0)
			b.Emit(Instr{Kind: Call, Dst: b.Reg(), Sym: "ghost"})
			b.Ret(Imm(0))
			p.AddFunc(b.Build())
			return p
		}, "undefined function"},
		{"arity mismatch", func() *Program {
			p := NewProgram()
			cb := NewBuilder("callee", 2)
			cb.Ret(Imm(0))
			p.AddFunc(cb.Build())
			b := NewBuilder("main", 0)
			b.Call("callee", Imm(1))
			b.Ret(Imm(0))
			p.AddFunc(b.Build())
			return p
		}, "args, want"},
		{"undefined label", func() *Program {
			p := NewProgram()
			b := NewBuilder("main", 0)
			b.Jump("nowhere")
			p.AddFunc(b.Build())
			return p
		}, "undefined label"},
		{"bad width", func() *Program {
			p := NewProgram()
			b := NewBuilder("main", 0)
			r := b.Const(0)
			b.Emit(Instr{Kind: Load, Dst: b.Reg(), Addr: r, Size: 3})
			b.Ret(Imm(0))
			p.AddFunc(b.Build())
			return p
		}, "invalid access width"},
		{"missing terminator", func() *Program {
			p := NewProgram()
			b := NewBuilder("main", 0)
			b.Const(1)
			p.AddFunc(b.Build())
			return p
		}, "does not end in ret"},
		{"two syscalls in one wrapper", func() *Program {
			p := NewProgram()
			b := NewBuilder("main", 0)
			b.Syscall(0)
			b.Syscall(1)
			b.Ret(Imm(0))
			p.AddFunc(b.Build())
			return p
		}, "want exactly 1"},
		{"undefined global", func() *Program {
			p := NewProgram()
			b := NewBuilder("main", 0)
			b.GlobalLea("ghost", 0)
			b.Ret(Imm(0))
			p.AddFunc(b.Build())
			return p
		}, "undefined global"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Validate()
			if err == nil {
				t.Fatal("Validate passed, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsGoodProgram(t *testing.T) {
	buildTestProgram(t) // fails the test on validation error
}

func TestDuplicateFunctionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate function")
		}
	}()
	p := NewProgram()
	b1 := NewBuilder("f", 0)
	b1.Ret(Imm(0))
	p.AddFunc(b1.Build())
	b2 := NewBuilder("f", 0)
	b2.Ret(Imm(0))
	p.AddFunc(b2.Build())
}

func TestPrintRoundTripsKeySyntax(t *testing.T) {
	p := buildTestProgram(t)
	s := p.String()
	for _, want := range []string{
		"func main(params 0,",
		"local buf: 32",
		"syscall(1,",
		"callind",
		"global msg: 16",
		"bnz",
		" done:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("program listing missing %q:\n%s", want, s)
		}
	}
}

func TestLinkResolvesLabels(t *testing.T) {
	p := buildTestProgram(t)
	m := p.Func("main")
	for i := range m.Code {
		in := &m.Code[i]
		if in.Kind == Jump || in.Kind == BranchNZ {
			if in.ToIndex < 0 || in.ToIndex >= len(m.Code) {
				t.Fatalf("instr %d: unresolved branch target %d", i, in.ToIndex)
			}
		}
	}
}

func TestOperandAndOpStrings(t *testing.T) {
	if got := R(3).String(); got != "r3" {
		t.Fatalf("R(3) = %q", got)
	}
	if got := Imm(-7).String(); got != "-7" {
		t.Fatalf("Imm(-7) = %q", got)
	}
	if got := OpAdd.String(); got != "add" {
		t.Fatalf("OpAdd = %q", got)
	}
	if got := CtxWriteMem.String(); got != "ctx_write_mem" {
		t.Fatalf("CtxWriteMem = %q", got)
	}
}

// refSlotLayout is the reference frame layout: FrameSlots walked in order,
// each slot 8-byte aligned.
func refSlotLayout(f *Function) (offs []int64, size int64) {
	for _, s := range f.FrameSlots() {
		offs = append(offs, size)
		size += (s.Size + 7) &^ 7
	}
	return offs, size
}

// TestSlotLayoutMatchesFrameSlots: SlotDisp and FrameLocalSize agree
// with the FrameSlots-derived reference over random layouts (odd and zero
// sizes, no parameters, no locals): on unlinked Function literals, with
// the table Link records, and after a local is added past Link. They
// reject out-of-range slots. LinkedSlotDisp answers exactly when Link's
// table is current and the slot exists, and then agrees with SlotDisp.
func TestSlotLayoutMatchesFrameSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randLocal := func() Slot { return Slot{Name: "l", Size: int64(rng.Intn(40))} }
	for trial := 0; trial < 500; trial++ {
		f := &Function{Name: "f", NumParams: rng.Intn(5)}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			f.Locals = append(f.Locals, randLocal())
		}
		checkSlotLayout(t, f, false)
		p := NewProgram()
		p.AddFunc(f)
		if err := p.Link(); err != nil {
			t.Fatal(err)
		}
		checkSlotLayout(t, f, true)
		f.Locals = append(f.Locals, randLocal())
		checkSlotLayout(t, f, false)
	}
}

// checkSlotLayout compares f's slot displacements and frame size with the
// reference layout, checks that out-of-range slots panic, and checks that
// LinkedSlotDisp answers for every slot when linked says Link's table is
// current, and for none otherwise.
func checkSlotLayout(t *testing.T, f *Function, linked bool) {
	t.Helper()
	offs, size := refSlotLayout(f)
	for i, want := range offs {
		if got := f.SlotDisp(i); got != want-size {
			t.Fatalf("params=%d locals=%+v: SlotDisp(%d) = %d, want %d", f.NumParams, f.Locals, i, got, want-size)
		}
		if d, ok := f.LinkedSlotDisp(i); ok != linked || ok && d != want-size {
			t.Fatalf("params=%d locals=%+v: LinkedSlotDisp(%d) = %d, %v; want %d, %v", f.NumParams, f.Locals, i, d, ok, want-size, linked)
		}
		if !f.HasSlot(i) {
			t.Fatalf("params=%d locals=%+v: HasSlot(%d) = false", f.NumParams, f.Locals, i)
		}
	}
	if got := f.FrameLocalSize(); got != size {
		t.Fatalf("params=%d locals=%+v: FrameLocalSize = %d, want %d", f.NumParams, f.Locals, got, size)
	}
	for _, bad := range []int{-1, len(offs)} {
		if _, ok := f.LinkedSlotDisp(bad); ok || f.HasSlot(bad) {
			t.Fatalf("params=%d locals=%+v: slot %d reported present", f.NumParams, f.Locals, bad)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("params=%d locals=%+v: SlotDisp(%d) did not panic", f.NumParams, f.Locals, bad)
				}
			}()
			f.SlotDisp(bad)
		}()
	}
}

// funcAtScan is the reference address lookup: a linear scan of Funcs.
func funcAtScan(p *Program, a uint64) (*Function, int) {
	for _, f := range p.Funcs {
		end := f.Base + uint64(len(f.Code))*InstrSize
		if a >= f.Base && a < end && (a-f.Base)%InstrSize == 0 {
			return f, int((a - f.Base) / InstrSize)
		}
	}
	return nil, 0
}

// TestFuncAtMatchesScan: the binary-search FuncAt of a linked program, and
// the scan of an unlinked one, agree with the linear reference at every
// instruction address, one byte either side, across the guard gaps, and
// at the extremes of the address space.
func TestFuncAtMatchesScan(t *testing.T) {
	check := func(p *Program, a uint64) {
		t.Helper()
		gf, gi := p.FuncAt(a)
		wf, wi := funcAtScan(p, a)
		if gf != wf || gi != wi {
			t.Fatalf("linked=%v FuncAt(%#x) = %v,%d, want %v,%d", p.Linked(), a, gf, gi, wf, wi)
		}
	}
	sweep := func(p *Program) {
		t.Helper()
		for _, a := range []uint64{0, 1, CodeBase - 1, CodeBase, math.MaxUint64} {
			check(p, a)
		}
		for _, f := range p.Funcs {
			// From just before the function through its trailing guard gap.
			start := f.Base - min(f.Base, InstrSize+1)
			for a := start; a < f.Base+uint64(len(f.Code)+8)*InstrSize; a++ {
				check(p, a)
			}
		}
	}

	p := buildTestProgram(t)
	p.AddFunc(&Function{Name: "empty"}) // no code: contains no address
	b := NewBuilder("tail", 1)
	b.Ret(Imm(0))
	p.AddFunc(b.Build())
	if p.Linked() {
		t.Fatal("AddFunc left the program linked")
	}
	sweep(p) // stale addresses from the earlier link: scanned
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	sweep(p)

	// An unlinked program: every Base is zero and the ranges overlap.
	u := NewProgram()
	for _, name := range []string{"a", "b", "c"} {
		b := NewBuilder(name, 0)
		b.Const(1)
		b.Ret(Imm(0))
		u.AddFunc(b.Build())
	}
	sweep(u)
	if f, idx := u.FuncAt(InstrSize); f != u.Funcs[0] || idx != 1 {
		t.Fatalf("unlinked FuncAt(4) = %v,%d, want the first function", f, idx)
	}
}

// TestRegBound: a function's register bound is NumRegs, or one more than
// the highest register any instruction names in any field when that is
// larger (an unvalidated program), before Link, after it, and after the
// code or NumRegs grows past what Link recorded.
func TestRegBound(t *testing.T) {
	f := &Function{Name: "f", NumRegs: 2, Code: []Instr{
		{Kind: Const, Dst: 1, Imm: 7},
		{Kind: Ret, Src: Imm(300)}, // an immediate names no register
	}}
	p := NewProgram()
	p.AddFunc(f)
	if got := f.RegBound(); got != 2 {
		t.Fatalf("unlinked bound %d, want NumRegs 2", got)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	if got := f.RegBound(); got != 2 {
		t.Fatalf("linked bound %d, want 2", got)
	}
	for _, c := range []struct {
		in   Instr
		want int
	}{
		{Instr{Kind: Mov, Dst: 4, Src: R(0)}, 5},
		{Instr{Kind: Bin, Dst: 0, A: R(9), B: Imm(1)}, 10},
		{Instr{Kind: Bin, Dst: 0, A: Imm(1), B: R(11)}, 12},
		{Instr{Kind: Load, Dst: 0, Addr: 13, Size: 8}, 14},
		{Instr{Kind: Store, Addr: 0, Src: R(15), Size: 8}, 16},
		{Instr{Kind: CallInd, Dst: 0, Target: 17}, 18},
		{Instr{Kind: Syscall, Dst: 0, Args: []Operand{Imm(39), R(19)}}, 20},
		{Instr{Kind: BranchNZ, Src: R(21)}, 22},
	} {
		g := &Function{Name: "g", NumRegs: 1, Code: []Instr{c.in, {Kind: Ret, Src: Imm(0)}}}
		if got := g.RegBound(); got != c.want {
			t.Errorf("%v: bound %d, want %d", c.in.Kind, got, c.want)
		}
	}
	// Code or NumRegs grown after Link is bounded afresh.
	f.Code = append(f.Code, Instr{Kind: Const, Dst: 40})
	if got := f.RegBound(); got != 41 {
		t.Fatalf("bound after growing the code %d, want 41", got)
	}
	f.Code = f.Code[:2]
	f.NumRegs = 50
	if got := f.RegBound(); got != 50 {
		t.Fatalf("bound after growing NumRegs %d, want 50", got)
	}
}
