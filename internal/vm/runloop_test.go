package vm

import (
	"fmt"
	"reflect"
	"testing"

	"bastion/internal/ir"
	"bastion/internal/mem"
)

// runLoopCase is a guest whose main faults in the middle of a block of
// straight-line instructions, after a call has put a frame below it.
type runLoopCase struct {
	name     string
	maxSteps uint64
	body     func(b *ir.Builder)
	wantWhy  string // the fault's reason, for a ControlFault
	wantAddr uint64 // the faulting address, for a *mem.Fault
	// What the fault leaves: steps, cycles (main's call costs 6) and
	// the next instruction index of fn, the function on top ("" for
	// helper).
	steps, cycles uint64
	fn            string
	idx           int
}

var runLoopCases = []runLoopCase{
	{name: "load fault", steps: 4, cycles: 10, idx: 3, body: func(b *ir.Builder) {
		a := b.Const(0x10) // never mapped
		b.Bin(ir.OpAdd, ir.R(a), ir.Imm(1))
		b.Load(a, 8, 8)
		b.Const(7)
	}},
	{name: "store fault", steps: 3, cycles: 9, idx: 2, body: func(b *ir.Builder) {
		a := b.Const(0x10)
		b.Store(a, 0, ir.Imm(3), 4)
		b.Const(7)
	}},
	// Word-cache misses leave the loop and come back: the global page's
	// first read (unbacked, never cached), its first write (backs it and
	// fills the write cache) and first cached read (fills the read
	// cache); then a hit. The value the loads carry is the next load's
	// faulting address.
	{name: "first touch of a page", wantAddr: 0x30, steps: 8, cycles: 18, idx: 7, body: func(b *ir.Builder) {
		g := b.GlobalLea("g", 0)
		b.Load(g, 0, 8)
		b.Store(g, 0, ir.Imm(0x30), 8)
		v := b.Load(g, 0, 8)
		w := b.Load(g, 8, 8)
		a := b.Bin(ir.OpAdd, ir.R(v), ir.R(w))
		b.Load(a, 0, 8)
		b.Const(7)
	}},
	// A word in the last 7 bytes of a cached page misses; so does one
	// that crosses into the next page.
	{name: "word at a page end", wantAddr: 0x30, steps: 9, cycles: 20, idx: 8, body: func(b *ir.Builder) {
		g := b.GlobalLea("g", 0)
		b.Store(g, 0, ir.Imm(1), 8)
		b.Store(g, mem.PageSize-8, ir.Imm(2), 8)
		b.Store(g, mem.PageSize-4, ir.Imm(0x30), 4)
		v := b.Load(g, mem.PageSize-4, 4)
		w := b.Load(g, mem.PageSize-2, 4)
		a := b.Bin(ir.OpAdd, ir.R(v), ir.R(w))
		b.Load(a, 0, 8)
		b.Const(7)
	}},
	// helper makes its own stack page read-only with mprotect; the
	// page is in the write cache, so the call's frame-link store must
	// miss and fault as the checked store does.
	{name: "call after mprotect of the stack", wantAddr: ir.StackTop - 120, steps: 5, cycles: 14, idx: 4, body: func(b *ir.Builder) {
		x := b.Lea("x", 0)
		pg := b.Bin(ir.OpAnd, ir.R(x), ir.Imm(-mem.PageSize))
		b.Syscall(sysMprotect, ir.R(pg), ir.Imm(mem.PageSize), ir.Imm(int64(mem.PermRead)))
		b.Call("leaf")
		b.Const(7)
	}},
	// helper overwrites its saved frame pointer with an unmapped
	// address and returns; main's return then reads its return address
	// through that frame pointer and faults.
	{name: "return through an unmapped frame pointer", wantAddr: 0x18, steps: 5, cycles: 17, fn: "main", idx: 2, body: func(b *ir.Builder) {
		x := b.Lea("x", 0)
		b.Store(x, 8, ir.Imm(0x10), 8)
		b.Ret(ir.Imm(0))
	}},
	{name: "division by zero", wantWhy: "division by zero", steps: 4, cycles: 9, idx: 3, body: func(b *ir.Builder) {
		z := b.Const(0)
		x := b.Const(9)
		b.Bin(ir.OpDiv, ir.R(x), ir.R(z))
		b.Const(7)
	}},
	{name: "modulo by zero", wantWhy: "modulo by zero", steps: 3, cycles: 8, idx: 2, body: func(b *ir.Builder) {
		x := b.Const(9)
		b.Bin(ir.OpMod, ir.R(x), ir.Imm(0))
	}},
	{name: "step budget", maxSteps: 9, wantWhy: "step budget exhausted (runaway guest?)", steps: 9, cycles: 14, idx: 0, body: func(b *ir.Builder) {
		b.Label("spin")
		r := b.Const(1)
		b.BinInto(r, ir.OpAdd, ir.R(r), ir.Imm(2))
		b.Lea("x", 0)
		b.Jump("spin")
	}},
	{name: "ran off end", wantWhy: "execution ran off function end", steps: 4, cycles: 8, idx: 2, body: func(b *ir.Builder) {
		r := b.Const(1)
		b.BinInto(r, ir.OpXor, ir.R(r), ir.Imm(3))
	}},
}

// runLoopView is what a faulting run leaves behind.
type runLoopView struct {
	Steps, Cycles uint64
	Func          string
	Idx           int
	Err           error
}

// sysMprotect is the one system call protectOS serves.
const sysMprotect = 10

// protectOS is a kernel that serves only mprotect(addr, len, perm), with
// perm a mem.Perm, and charges nothing for it.
type protectOS struct{}

func (protectOS) Syscall(m *Machine) (int64, error) {
	r := &m.SysRegs
	if r.RAX != sysMprotect {
		return 0, fmt.Errorf("syscall %d", r.RAX)
	}
	return 0, m.Mem.Protect(r.RDI, r.RSI, mem.Perm(r.RDX))
}

// runFaulting runs c's guest, main calling a helper whose body is c's,
// with a two-page global g, a leaf function and protectOS, and returns
// what it left; single installs a no-op hook at an address no
// instruction has, which makes the run loop leave after every
// instruction.
func runFaulting(t *testing.T, c runLoopCase, single bool) runLoopView {
	t.Helper()
	p := ir.NewProgram()
	p.AddGlobal(&ir.Global{Name: "g", Size: 2 * mem.PageSize})
	hb := ir.NewBuilder("helper", 0)
	hb.Local("x", 8)
	c.body(hb)
	p.AddFunc(hb.Build())
	mb := ir.NewBuilder("main", 0)
	mb.Ret(ir.R(mb.Call("helper")))
	p.AddFunc(mb.Build())
	lb := ir.NewBuilder("leaf", 0)
	lb.Ret(ir.Imm(0))
	p.AddFunc(lb.Build())
	// No Validate: "ran off end" has no terminator.
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	m, err := New(p, WithMaxSteps(c.maxSteps), WithOS(protectOS{}))
	if err != nil {
		t.Fatal(err)
	}
	if single {
		m.AddHook(0x1, func(*Machine) error { return nil })
	}
	_, err = m.CallFunction("main")
	fn, idx := m.CurrentFunc()
	return runLoopView{Steps: m.Steps, Cycles: m.Clock.Cycles, Func: fn.Name, Idx: idx, Err: err}
}

// TestRunLoopFaultsMatchSingleStep: a fault in the middle of a block
// leaves the same steps, clock, pc and error whether the run loop ran the
// block whole or one instruction at a time, and the steps, clock and pc
// are the pinned ones: the faulting instruction is counted and charged,
// and the pc is past it.
func TestRunLoopFaultsMatchSingleStep(t *testing.T) {
	for _, c := range runLoopCases {
		t.Run(c.name, func(t *testing.T) {
			block, single := runFaulting(t, c, false), runFaulting(t, c, true)
			fn := c.fn
			if fn == "" {
				fn = "helper"
			}
			if block.Err == nil || block.Func != fn {
				t.Fatalf("the guest did not fault in %s: %+v", fn, block)
			}
			if cf, ok := block.Err.(*ControlFault); c.wantWhy != "" && (!ok || cf.Why != c.wantWhy) {
				t.Fatalf("err = %v, want a control fault: %s", block.Err, c.wantWhy)
			}
			if f, ok := block.Err.(*mem.Fault); c.wantAddr != 0 && (!ok || f.Addr != c.wantAddr) {
				t.Fatalf("err = %v, want a memory fault at %#x", block.Err, c.wantAddr)
			}
			if block.Steps != c.steps || block.Cycles != c.cycles || block.Idx != c.idx {
				t.Fatalf("fault left steps %d, cycles %d, %s+%d; want %d, %d, %s+%d",
					block.Steps, block.Cycles, fn, block.Idx, c.steps, c.cycles, fn, c.idx)
			}
			if !reflect.DeepEqual(block, single) {
				t.Fatalf("in blocks: %+v\none at a time: %+v", block, single)
			}
		})
	}
}
