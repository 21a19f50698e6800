package vm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"bastion/internal/ir"
	"bastion/internal/mem"
)

// fakeOS records syscalls and returns canned values; nr 60 exits.
type fakeOS struct {
	calls []Regs
	ret   int64
}

func (f *fakeOS) Syscall(m *Machine) (int64, error) {
	f.calls = append(f.calls, m.SysRegs)
	if m.SysRegs.RAX == 60 {
		return 0, &ExitError{Code: int64(m.SysRegs.RDI)}
	}
	return f.ret, nil
}

func mustMachine(t *testing.T, p *ir.Program, opts ...Option) *Machine {
	t.Helper()
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	m, err := New(p, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m.MaxSteps = 1 << 20
	return m
}

func TestArithmeticAndBranches(t *testing.T) {
	p := ir.NewProgram()
	// main: computes sum 1..10 via a loop, returns it.
	b := ir.NewBuilder("main", 0)
	sum := b.Const(0)
	i := b.Const(1)
	b.Label("loop")
	cond := b.Bin(ir.OpLe, ir.R(i), ir.Imm(10))
	done := b.Bin(ir.OpEq, ir.R(cond), ir.Imm(0))
	b.BranchNZ(ir.R(done), "end")
	b.BinInto(sum, ir.OpAdd, ir.R(sum), ir.R(i))
	b.BinInto(i, ir.OpAdd, ir.R(i), ir.Imm(1))
	b.Jump("loop")
	b.Label("end")
	b.Ret(ir.R(sum))
	p.AddFunc(b.Build())

	m := mustMachine(t, p)
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
}

func TestBinopTable(t *testing.T) {
	cases := []struct {
		op   ir.Op
		a, b uint64
		want uint64
	}{
		{ir.OpAdd, 3, 4, 7},
		{ir.OpSub, 3, 4, ^uint64(0)},
		{ir.OpMul, 6, 7, 42},
		{ir.OpDiv, negu(9), 3, negu(3)},
		{ir.OpMod, 10, 3, 1},
		{ir.OpAnd, 0b1100, 0b1010, 0b1000},
		{ir.OpOr, 0b1100, 0b1010, 0b1110},
		{ir.OpXor, 0b1100, 0b1010, 0b0110},
		{ir.OpShl, 1, 4, 16},
		{ir.OpShr, 16, 4, 1},
		{ir.OpEq, 5, 5, 1},
		{ir.OpNe, 5, 5, 0},
		{ir.OpLt, negu(1), 0, 1},
		{ir.OpLe, 2, 2, 1},
		{ir.OpGt, 0, negu(1), 1},
		{ir.OpGe, 1, 2, 0},
	}
	for _, tc := range cases {
		got, err := runBin(t, tc.op, tc.a, tc.b)
		if err != nil {
			t.Fatalf("%v: %v", tc.op, err)
		}
		if got != tc.want {
			t.Errorf("%v(%d,%d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
	for _, op := range []ir.Op{ir.OpDiv, ir.OpMod} {
		var cf *ControlFault
		if _, err := runBin(t, op, 1, 0); !errors.As(err, &cf) {
			t.Fatalf("%v by zero: err = %v, want a control fault", op, err)
		}
	}
}

// TestBinMatchesFoldConst pins the interpreter's inline ALU to
// ir.FoldConst, with which the compiler pass and the binary extractor fold
// constant arguments: on every op FoldConst folds, the two agree for every
// pair of operands below, shift counts of 64 and above included.
func TestBinMatchesFoldConst(t *testing.T) {
	vals := []int64{0, 1, 2, 7, 63, 64, 65, 127, 128, 1 << 40, -1, -64, math.MaxInt64, math.MinInt64, 0x5a5a5a5a5a5a5a5a}
	var foldable []ir.Op
	for op := ir.OpAdd; op <= ir.OpGe; op++ {
		if _, ok := ir.FoldConst(op, 1, 1); !ok {
			continue
		}
		foldable = append(foldable, op)
		for _, a := range vals {
			for _, b := range vals {
				want, _ := ir.FoldConst(op, a, b)
				got, err := runBin(t, op, uint64(a), uint64(b))
				if err != nil {
					t.Fatalf("%v(%d,%d): %v", op, a, b, err)
				}
				if int64(got) != want {
					t.Errorf("%v(%d,%d): VM %d, FoldConst %d", op, a, b, int64(got), want)
				}
			}
		}
	}
	want := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr}
	if fmt.Sprint(foldable) != fmt.Sprint(want) {
		t.Errorf("FoldConst folds %v, want %v", foldable, want)
	}
}

// runBin runs main() { return a op b } with both operands in registers.
func runBin(t *testing.T, op ir.Op, a, b uint64) (uint64, error) {
	t.Helper()
	p := ir.NewProgram()
	bld := ir.NewBuilder("main", 0)
	ra, rb := bld.Const(int64(a)), bld.Const(int64(b))
	bld.Ret(ir.R(bld.Bin(op, ir.R(ra), ir.R(rb))))
	p.AddFunc(bld.Build())
	return mustMachine(t, p).CallFunction("main")
}

func TestCallsAndParamsInMemory(t *testing.T) {
	p := ir.NewProgram()
	// add(a, b) { return a + b }
	add := ir.NewBuilder("add", 2)
	a := add.LoadLocal("p0")
	bb := add.LoadLocal("p1")
	add.Ret(ir.R(add.Bin(ir.OpAdd, ir.R(a), ir.R(bb))))
	p.AddFunc(add.Build())

	// main { x = add(add(1,2), 30); return x }
	b := ir.NewBuilder("main", 0)
	inner := b.Call("add", ir.Imm(1), ir.Imm(2))
	outer := b.Call("add", ir.R(inner), ir.Imm(30))
	b.Ret(ir.R(outer))
	p.AddFunc(b.Build())

	m := mustMachine(t, p)
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 33 {
		t.Fatalf("got %d, want 33", got)
	}
}

func TestRecursionUsesMemoryFrames(t *testing.T) {
	p := ir.NewProgram()
	// fib(n) { if n < 2 return n; return fib(n-1)+fib(n-2) }
	f := ir.NewBuilder("fib", 1)
	n := f.LoadLocal("p0")
	c := f.Bin(ir.OpLt, ir.R(n), ir.Imm(2))
	f.BranchNZ(ir.R(c), "base")
	n1 := f.Bin(ir.OpSub, ir.R(n), ir.Imm(1))
	r1 := f.Call("fib", ir.R(n1))
	// n is live across the call; it was reloaded from the parameter slot so
	// reload it again to model a memory-backed local.
	n2 := f.LoadLocal("p0")
	n2m := f.Bin(ir.OpSub, ir.R(n2), ir.Imm(2))
	r2 := f.Call("fib", ir.R(n2m))
	f.Ret(ir.R(f.Bin(ir.OpAdd, ir.R(r1), ir.R(r2))))
	f.Label("base")
	nAgain := f.LoadLocal("p0")
	f.Ret(ir.R(nAgain))
	p.AddFunc(f.Build())
	p.Entry = "fib"

	m := mustMachine(t, p)
	got, err := m.CallFunction("fib", 10)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 55 {
		t.Fatalf("fib(10) = %d, want 55", got)
	}
}

func TestIndirectCall(t *testing.T) {
	p := ir.NewProgram()
	dbl := ir.NewBuilder("double", 1)
	v := dbl.LoadLocal("p0")
	dbl.Ret(ir.R(dbl.Bin(ir.OpMul, ir.R(v), ir.Imm(2))))
	p.AddFunc(dbl.Build())

	b := ir.NewBuilder("main", 0)
	fp := b.FuncAddr("double")
	r := b.CallInd(fp, "i64(i64)", ir.Imm(21))
	b.Ret(ir.R(r))
	p.AddFunc(b.Build())

	m := mustMachine(t, p)
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestIndirectCallToNonFunctionFaults(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewBuilder("main", 0)
	bad := b.Const(0xdead0000)
	b.CallInd(bad, "i64()")
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())

	m := mustMachine(t, p)
	_, err := m.CallFunction("main")
	var cf *ControlFault
	if !errors.As(err, &cf) {
		t.Fatalf("err = %v, want ControlFault", err)
	}
}

func TestGlobalsLoadedAndWritable(t *testing.T) {
	p := ir.NewProgram()
	p.AddGlobal(&ir.Global{Name: "counter", Size: 8})
	p.AddGlobal(&ir.Global{Name: "msg", Size: 8, Init: []byte{0x2a}})

	b := ir.NewBuilder("main", 0)
	g := b.GlobalLea("msg", 0)
	v := b.Load(g, 0, 1)
	c := b.GlobalLea("counter", 0)
	b.Store(c, 0, ir.R(v), 8)
	v2 := b.Load(c, 0, 8)
	b.Ret(ir.R(v2))
	p.AddFunc(b.Build())

	m := mustMachine(t, p)
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 0x2a {
		t.Fatalf("got %#x, want 0x2a", got)
	}
}

// buildOverflowProgram: victim() has an 16-byte buffer and a helper that
// writes n bytes of attacker data into it, overflowing into the saved
// frame pointer and return address; "target" is never called legitimately.
func buildOverflowProgram(t *testing.T) *ir.Program {
	p := ir.NewProgram()
	p.AddGlobal(&ir.Global{Name: "pwned", Size: 8})

	tgt := ir.NewBuilder("target", 0)
	g := tgt.GlobalLea("pwned", 0)
	tgt.Store(g, 0, ir.Imm(1), 8)
	tgt.Ret(ir.Imm(0))
	p.AddFunc(tgt.Build())

	// victim(src, n): memcpy(buf, src, n) with no bounds check; then ret.
	v := ir.NewBuilder("victim", 2)
	v.Local("buf", 16)
	src := v.LoadLocal("p0")
	n := v.LoadLocal("p1")
	buf := v.Lea("buf", 0)
	i := v.Const(0)
	v.Label("copy")
	c := v.Bin(ir.OpLt, ir.R(i), ir.R(n))
	done := v.Bin(ir.OpEq, ir.R(c), ir.Imm(0))
	v.BranchNZ(ir.R(done), "out")
	sa := v.Bin(ir.OpAdd, ir.R(src), ir.R(i))
	bytev := v.Load(sa, 0, 1)
	da := v.Bin(ir.OpAdd, ir.R(buf), ir.R(i))
	v.Store(da, 0, ir.R(bytev), 1)
	v.BinInto(i, ir.OpAdd, ir.R(i), ir.Imm(1))
	v.Jump("copy")
	v.Label("out")
	v.Ret(ir.Imm(0))
	p.AddFunc(v.Build())

	b := ir.NewBuilder("main", 2)
	payload := b.LoadLocal("p0")
	plen := b.LoadLocal("p1")
	b.Call("victim", ir.R(payload), ir.R(plen))
	b.Ret(ir.Imm(7)) // normal path returns 7
	p.AddFunc(b.Build())
	return p
}

func TestStackSmashHijacksReturn(t *testing.T) {
	p := buildOverflowProgram(t)
	m := mustMachine(t, p)

	// Stage the payload in a scratch global region: 16 filler bytes, then
	// 8 bytes of fake saved-rbp pointing at a fake frame, then the target
	// address. Layout in victim: buf(16) | saved rbp | retaddr.
	target := p.Func("target").Base
	payloadAddr := ir.HeapBase
	if err := m.Mem.Map(payloadAddr, 4096, 0b011); err != nil { // rw
		t.Fatal(err)
	}
	// Fake frame: at fakeRbp, [fakeRbp]=0, [fakeRbp+8]=0 so the hijacked
	// target's own ret lands on the sentinel and stops cleanly.
	fakeRbp := payloadAddr + 256
	if err := m.Mem.WriteUint(fakeRbp, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.WriteUint(fakeRbp+8, 0, 8); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	putLE(buf[16:], fakeRbp)
	putLE(buf[24:], target)
	if err := m.Mem.Write(payloadAddr, buf); err != nil {
		t.Fatal(err)
	}

	_, err := m.CallFunction("main", payloadAddr, 32)
	if err != nil {
		t.Fatalf("hijacked run faulted: %v", err)
	}
	g := p.GlobalByName("pwned")
	v, err := m.Mem.ReadUint(g.Addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatal("hijack did not reach target function")
	}
}

func TestNoOverflowNormalReturn(t *testing.T) {
	p := buildOverflowProgram(t)
	m := mustMachine(t, p)
	addr := ir.HeapBase
	if err := m.Mem.Map(addr, 4096, 0b011); err != nil {
		t.Fatal(err)
	}
	got, err := m.CallFunction("main", addr, 8) // within bounds
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
	g := p.GlobalByName("pwned")
	if v, _ := m.Mem.ReadUint(g.Addr, 8); v != 0 {
		t.Fatal("pwned set without overflow")
	}
}

func negu(v int64) uint64 { return uint64(-v) }

func putLE(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func TestSyscallLatchesRegisters(t *testing.T) {
	p := ir.NewProgram()
	w := ir.NewBuilder("sys_write", 3)
	a0 := w.LoadLocal("p0")
	a1 := w.LoadLocal("p1")
	a2 := w.LoadLocal("p2")
	w.Syscall(1, ir.R(a0), ir.R(a1), ir.R(a2))
	w.Ret(ir.Imm(0))
	p.AddFunc(w.Build())

	b := ir.NewBuilder("main", 0)
	b.Call("sys_write", ir.Imm(5), ir.Imm(0x1234), ir.Imm(99))
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())

	os := &fakeOS{ret: 42}
	m := mustMachine(t, p, WithOS(os))
	if _, err := m.CallFunction("main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(os.calls) != 1 {
		t.Fatalf("%d syscalls, want 1", len(os.calls))
	}
	r := os.calls[0]
	if r.RAX != 1 || r.RDI != 5 || r.RSI != 0x1234 || r.RDX != 99 {
		t.Fatalf("latched regs = %+v", r)
	}
	wf := p.Func("sys_write")
	if f, _ := p.FuncAt(r.RIP); f != wf {
		t.Fatalf("RIP %#x not inside sys_write", r.RIP)
	}
	if r.Arg(1) != 5 || r.Arg(2) != 0x1234 || r.Arg(3) != 99 || r.Arg(7) != 0 {
		t.Fatalf("Arg() mismatch: %+v", r)
	}
}

func TestUnwindMatchesCallChain(t *testing.T) {
	p := ir.NewProgram()
	w := ir.NewBuilder("sys_kill_time", 0)
	w.Syscall(999)
	w.Ret(ir.Imm(0))
	p.AddFunc(w.Build())

	inner := ir.NewBuilder("inner", 0)
	inner.Call("sys_kill_time")
	inner.Ret(ir.Imm(0))
	p.AddFunc(inner.Build())

	outer := ir.NewBuilder("outer", 0)
	outer.Call("inner")
	outer.Ret(ir.Imm(0))
	p.AddFunc(outer.Build())

	b := ir.NewBuilder("main", 0)
	b.Call("outer")
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())

	var trace []uint64
	os := &hookOS{fn: func(m *Machine) {
		tr, err := m.Unwind(32)
		if err != nil {
			t.Fatalf("Unwind: %v", err)
		}
		trace = tr
	}}
	m := mustMachine(t, p, WithOS(os))
	if _, err := m.CallFunction("main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Return addresses: into inner (after call sys_kill_time), into outer,
	// into main. The sentinel stops the walk.
	if len(trace) != 3 {
		t.Fatalf("unwound %d frames (%#x), want 3", len(trace), trace)
	}
	checks := []string{"inner", "outer", "main"}
	for i, ra := range trace {
		f, _ := p.FuncAt(ra)
		if f == nil || f.Name != checks[i] {
			t.Fatalf("frame %d: retaddr %#x in %v, want %s", i, ra, f, checks[i])
		}
	}
	if m.AvgSyscallDepth() != 4 { // main, outer, inner, wrapper
		t.Fatalf("avg depth = %v, want 4", m.AvgSyscallDepth())
	}
	if m.MinDepth != 4 || m.MaxDepth != 4 {
		t.Fatalf("depth bounds = %d..%d", m.MinDepth, m.MaxDepth)
	}
}

type hookOS struct{ fn func(m *Machine) }

func (h *hookOS) Syscall(m *Machine) (int64, error) {
	h.fn(m)
	return 0, nil
}

func TestHooksFireAndCanCorrupt(t *testing.T) {
	p := ir.NewProgram()
	p.AddGlobal(&ir.Global{Name: "x", Size: 8, Init: []byte{1}})
	b := ir.NewBuilder("main", 0)
	g := b.GlobalLea("x", 0)
	v := b.Load(g, 0, 8) // hook below corrupts x before this load
	b.Ret(ir.R(v))
	p.AddFunc(b.Build())

	m := mustMachine(t, p)
	if err := m.HookFunc("main", 1, func(mm *Machine) error {
		return mm.Mem.WriteUint(p.GlobalByName("x").Addr, 0x77, 8)
	}); err != nil {
		t.Fatal(err)
	}
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 0x77 {
		t.Fatalf("got %#x, want 0x77", got)
	}
}

func TestExitSyscallStopsMachine(t *testing.T) {
	p := ir.NewProgram()
	w := ir.NewBuilder("sys_exit", 1)
	a := w.LoadLocal("p0")
	w.Syscall(60, ir.R(a))
	w.Ret(ir.Imm(0))
	p.AddFunc(w.Build())
	b := ir.NewBuilder("main", 0)
	b.Call("sys_exit", ir.Imm(3))
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())

	m := mustMachine(t, p, WithOS(&fakeOS{}))
	err := m.Run()
	var xe *ExitError
	if !errors.As(err, &xe) || xe.Code != 3 {
		t.Fatalf("err = %v, want ExitError{3}", err)
	}
	if !m.Halted() || m.ExitCode() != 3 {
		t.Fatalf("halted=%v code=%d", m.Halted(), m.ExitCode())
	}
}

func TestStackOverflowFaults(t *testing.T) {
	p := ir.NewProgram()
	f := ir.NewBuilder("loop", 0)
	f.Local("pad", 4096)
	f.Call("loop")
	f.Ret(ir.Imm(0))
	p.AddFunc(f.Build())
	b := ir.NewBuilder("main", 0)
	b.Call("loop")
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())

	m := mustMachine(t, p)
	_, err := m.CallFunction("main")
	var cf *ControlFault
	if !errors.As(err, &cf) || !strings.Contains(cf.Why, "stack overflow") {
		t.Fatalf("err = %v, want stack overflow", err)
	}
}

func TestStepBudget(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewBuilder("main", 0)
	b.Label("spin")
	b.Jump("spin")
	p.AddFunc(b.Build())
	// Validator wants ret/jmp terminator; jmp qualifies.
	m := mustMachine(t, p)
	m.MaxSteps = 1000
	_, err := m.CallFunction("main")
	var cf *ControlFault
	if !errors.As(err, &cf) || !strings.Contains(cf.Why, "step budget") {
		t.Fatalf("err = %v, want step budget fault", err)
	}
}

// recordingMitigation counts events and can veto indirect calls.
type recordingMitigation struct {
	calls, rets, inds int
	vetoInd           bool
}

func (r *recordingMitigation) OnCall(*Machine, uint64) { r.calls++ }
func (r *recordingMitigation) OnRet(*Machine, uint64) error {
	r.rets++
	return nil
}
func (r *recordingMitigation) OnIndirectCall(*Machine, *ir.Instr, uint64) error {
	r.inds++
	if r.vetoInd {
		return &KillError{By: "test", Reason: "indirect veto"}
	}
	return nil
}

func TestMitigationHooks(t *testing.T) {
	p := ir.NewProgram()
	leaf := ir.NewBuilder("leaf", 0)
	leaf.Ret(ir.Imm(0))
	p.AddFunc(leaf.Build())
	b := ir.NewBuilder("main", 0)
	b.Call("leaf")
	fp := b.FuncAddr("leaf")
	b.CallInd(fp, "i64()")
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())

	rec := &recordingMitigation{}
	m := mustMachine(t, p, WithMitigations(rec))
	if _, err := m.CallFunction("main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	// calls: main entry + leaf direct + leaf indirect = 3; rets likewise 3.
	if rec.calls != 3 || rec.rets != 3 || rec.inds != 1 {
		t.Fatalf("events = %+v", rec)
	}

	rec2 := &recordingMitigation{vetoInd: true}
	m2 := mustMachine(t, p, WithMitigations(rec2))
	_, err := m2.CallFunction("main")
	var ke *KillError
	if !errors.As(err, &ke) {
		t.Fatalf("err = %v, want KillError", err)
	}
}

func TestClockAdvances(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewBuilder("main", 0)
	b.Const(1)
	b.Const(2)
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())
	c := &Clock{}
	m := mustMachine(t, p, WithClock(c))
	if _, err := m.CallFunction("main"); err != nil {
		t.Fatal(err)
	}
	if c.Cycles == 0 {
		t.Fatal("clock did not advance")
	}
}

func TestSlotAddrAndHookFuncErrors(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewBuilder("main", 0)
	b.Local("x", 8)
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())
	m := mustMachine(t, p)
	if err := m.HookFunc("ghost", 0, nil); err == nil {
		t.Fatal("HookFunc on missing function succeeded")
	}
	if err := m.HookFunc("main", 99, nil); err == nil {
		t.Fatal("HookFunc on bad index succeeded")
	}
	if _, err := m.SlotAddr("x"); err == nil {
		t.Fatal("SlotAddr outside a frame succeeded")
	}
}

// Link resolves Call, FuncAddr and GlobalAddr symbols to pointers but does
// not reject a program that names an undefined one: executing such an
// instruction fails with the same error the name lookup gave.
func TestUnresolvedSymbolFailsAtRun(t *testing.T) {
	for _, tc := range []struct {
		emit func(b *ir.Builder)
		want string
	}{
		{func(b *ir.Builder) { b.Call("ghost") }, `vm: undefined function "ghost"`},
		{func(b *ir.Builder) { b.FuncAddr("ghost") }, `vm: undefined function "ghost"`},
		{func(b *ir.Builder) { b.GlobalLea("ghost", 0) }, `vm: undefined global "ghost"`},
	} {
		p := ir.NewProgram()
		b := ir.NewBuilder("main", 0)
		tc.emit(b)
		b.Ret(ir.Imm(0))
		p.AddFunc(b.Build())
		if err := p.Link(); err != nil {
			t.Fatalf("Link rejected an undefined symbol: %v", err)
		}
		m, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.CallFunction("main"); err == nil || err.Error() != tc.want {
			t.Fatalf("run: %v, want %q", err, tc.want)
		}
	}
	// Defining the symbols and linking again resolves them.
	p := ir.NewProgram()
	p.AddGlobal(&ir.Global{Name: "g", Size: 8})
	cb := ir.NewBuilder("callee", 0)
	cb.Ret(ir.Imm(7))
	p.AddFunc(cb.Build())
	b := ir.NewBuilder("main", 0)
	b.Call("callee")
	b.FuncAddr("callee")
	b.GlobalLea("g", 0)
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())
	mustMachine(t, p)
	code := p.Func("main").Code
	if code[0].Callee != p.Func("callee") || code[1].Callee != p.Func("callee") || code[2].Global != p.GlobalByName("g") {
		t.Fatalf("Link left symbols unresolved: %+v", code[:3])
	}
}

// A LocalAddr of a slot its function does not have, which Validate
// rejects, fails the run with an error, as an undefined symbol does; it
// does not panic the host. One of a function whose slots changed since
// Link takes the exit path and gets the layout computed afresh.
func TestLocalAddrOutsideLinkedSlots(t *testing.T) {
	for _, slot := range []int{-1, 1, 1 << 40} {
		p := ir.NewProgram()
		b := ir.NewBuilder("main", 0)
		b.Local("x", 8)
		b.Emit(ir.Instr{Kind: ir.LocalAddr, Dst: b.Reg(), Slot: slot})
		b.Ret(ir.Imm(0))
		p.AddFunc(b.Build())
		if err := p.Link(); err != nil {
			t.Fatal(err)
		}
		m, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("vm: main has no slot %d", slot)
		if _, err := m.CallFunction("main"); err == nil || err.Error() != want {
			t.Fatalf("slot %d: run: %v, want %q", slot, err, want)
		}
	}

	p := ir.NewProgram()
	b := ir.NewBuilder("main", 0)
	b.Local("x", 8)
	b.Local("y", 8)
	b.Ret(ir.R(b.Lea("y", 0)))
	f := b.Build()
	p.AddFunc(f)
	m := mustMachine(t, p)
	f.Locals = append(f.Locals, ir.Slot{Name: "z", Size: 24}) // after Link
	if _, ok := f.LinkedSlotDisp(1); ok {
		t.Fatal("LinkedSlotDisp answered after the slots changed")
	}
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatal(err)
	}
	// main's frame sits 16 bytes (saved rbp, return address) below the
	// machine's initial stack pointer.
	if want := ir.StackTop - 64 - 16 + uint64(f.SlotDisp(1)); got != want {
		t.Fatalf("LocalAddr of a slot added after Link = %#x, want %#x", got, want)
	}
}

// TestWordWidthOutOfRange: Validate rejects a Load or Store wider than 8
// bytes or of negative width, but New does not run it. Such an access
// misses the word cache, and the checked accessor must fail the run with
// a memory fault instead of panicking the host. Width 0 reads 0 and
// writes nothing, as it always has.
func TestWordWidthOutOfRange(t *testing.T) {
	run := func(store bool, width int64) (uint64, error) {
		t.Helper()
		p := ir.NewProgram()
		b := ir.NewBuilder("main", 0)
		b.Local("x", 8)
		x := b.Lea("x", 0)
		b.Store(x, 0, ir.Imm(0x1122), 8)
		v := ir.Operand(ir.Imm(0))
		if store {
			b.Store(x, 0, ir.Imm(-1), width)
		} else {
			v = ir.R(b.Load(x, 0, width))
		}
		b.Ret(v)
		p.AddFunc(b.Build())
		if err := p.Link(); err != nil {
			t.Fatal(err)
		}
		m, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		return m.CallFunction("main")
	}
	for _, width := range []int64{9, -1} {
		for _, store := range []bool{false, true} {
			var f *mem.Fault
			if _, err := run(store, width); !errors.As(err, &f) {
				t.Errorf("width %d, store %v: run ended with %v, want a *mem.Fault", width, store, err)
			}
		}
	}
	if v, err := run(false, 0); v != 0 || err != nil {
		t.Errorf("load of width 0 = %#x, %v; want 0", v, err)
	}
	if _, err := run(true, 0); err != nil {
		t.Errorf("store of width 0: %v", err)
	}
}
