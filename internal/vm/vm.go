// Package vm executes IR guest programs on a simulated machine whose call
// stack is realized in guest memory. Return addresses, saved frame pointers,
// parameters, and locals live in the corruptible address space, so the
// attack classes BASTION defends against — ROP via return-address
// overwrites, function-pointer hijacks, and non-pointer data corruption —
// behave as they do on real hardware, and the BASTION monitor can unwind
// real frames.
//
// Machine model (x86-64-flavoured, frame-pointer based):
//
//	high addresses
//	  ... caller frame ...
//	  [rbp+8]  return address      <- pushed by Call
//	  [rbp+0]  saved caller rbp
//	  [rbp-localSize .. rbp-1] parameter spill slots, then locals
//	  [rsp] == rbp - localSize
//	low addresses
//
// Virtual registers are per-frame and not addressable, matching the paper's
// assumption that register state is out of the attacker's direct reach;
// everything that crosses frames does so through memory.
package vm

import (
	"errors"
	"fmt"
	"io"
	"math"

	"bastion/internal/ir"
	"bastion/internal/mem"
)

// MaxRegsPerFrame bounds a function's virtual register file.
const MaxRegsPerFrame = 256

// Regs is the register file exposed to the kernel and, through the ptrace
// facility, to the BASTION monitor when a system call traps. Field names
// mirror the x86-64 syscall ABI.
type Regs struct {
	RAX uint64 // syscall number
	RDI uint64
	RSI uint64
	RDX uint64
	R10 uint64
	R8  uint64
	R9  uint64
	RIP uint64 // address of the trapping syscall instruction
	RSP uint64
	RBP uint64
}

// Arg returns the pos-th (1-based) syscall argument register. Positions
// outside 1..6 have no register and return 0; metadata.Validate rejects
// such positions before they reach enforcement, so a zero here is never
// silently compared against a traced argument.
func (r *Regs) Arg(pos int) uint64 {
	switch pos {
	case 1:
		return r.RDI
	case 2:
		return r.RSI
	case 3:
		return r.RDX
	case 4:
		return r.R10
	case 5:
		return r.R8
	case 6:
		return r.R9
	}
	return 0
}

// Clock accumulates simulated cycles. It is shared (by pointer) between the
// VM, the kernel, and the monitor so that trap handling time is charged to
// the same timeline as guest execution, as a ptrace stop serializes the
// traced thread with its tracer.
type Clock struct {
	Cycles uint64
}

// Add charges n cycles.
func (c *Clock) Add(n uint64) { c.Cycles += n }

// CostModel holds the per-operation cycle charges for guest execution.
// Values are relative; internal/bench documents the calibration.
type CostModel struct {
	Instr     uint64 // default instruction
	MemAccess uint64 // load/store
	Call      uint64 // direct call (frame setup)
	CallInd   uint64 // indirect call
	Ret       uint64
	WriteMem  uint64 // ctx_write_mem intrinsic (inlined library)
	Bind      uint64 // ctx_bind_* intrinsics
}

// DefaultCosts is the calibrated default cost model.
func DefaultCosts() CostModel {
	return CostModel{Instr: 1, MemAccess: 2, Call: 6, CallInd: 7, Ret: 4, WriteMem: 6, Bind: 4}
}

// SyscallHandler is the kernel-side entry point. It receives the machine
// with syscall registers latched (Machine.SysRegs) and returns the
// syscall's return value. Returning an error that unwraps to *ExitError or
// *KillError terminates the guest.
type SyscallHandler interface {
	Syscall(m *Machine) (int64, error)
}

// RuntimeHooks receives the BASTION runtime-library intrinsics. A nil hooks
// installation makes intrinsics cost-only no-ops (the instrumented binary
// running without a monitor).
type RuntimeHooks interface {
	// CtxWriteMem updates the shadow copy of [addr, addr+size).
	CtxWriteMem(m *Machine, addr uint64, size int64) error
	// CtxBindMem binds memory addr to argument pos of the callsite at site.
	CtxBindMem(m *Machine, site uint64, pos int, addr uint64) error
	// CtxBindConst binds constant val to argument pos of the callsite at site.
	CtxBindConst(m *Machine, site uint64, pos int, val int64) error
}

// Mitigation is a VM-enforced hardware/software defense (CET shadow stack,
// LLVM-CFI indirect-call checks). Returning a non-nil error from a check
// kills the guest with a *KillError.
type Mitigation interface {
	// OnCall observes a call pushing retaddr.
	OnCall(m *Machine, retaddr uint64)
	// OnRet checks a return to retaddr.
	OnRet(m *Machine, retaddr uint64) error
	// OnIndirectCall checks an indirect call to target from callsite in.
	OnIndirectCall(m *Machine, in *ir.Instr, target uint64) error
}

// ExitError reports voluntary guest termination (exit/exit_group).
type ExitError struct{ Code int64 }

func (e *ExitError) Error() string { return fmt.Sprintf("vm: guest exited with status %d", e.Code) }

// KillError reports forcible termination (seccomp SECCOMP_RET_KILL, monitor
// verdict, or mitigation violation).
type KillError struct {
	By     string // "seccomp", "monitor", "cet", "cfi", ...
	Reason string
}

func (e *KillError) Error() string { return fmt.Sprintf("vm: guest killed by %s: %s", e.By, e.Reason) }

// ControlFault reports a control-flow integrity break at the machine level:
// transferring to a non-code address or running off the end of a function.
type ControlFault struct {
	Addr uint64
	Why  string
}

func (e *ControlFault) Error() string {
	return fmt.Sprintf("vm: control fault at %#x: %s", e.Addr, e.Why)
}

// Hook is an attacker/debugger breakpoint invoked before the instruction at
// its address executes. Returning an error stops the machine with it.
type Hook func(m *Machine) error

type frame struct {
	fn  *ir.Function
	idx int // next instruction index
	// hw is the frame's high-water mark: the largest register bound of
	// any function run in it since it was last cleared. Every register
	// at or above hw is zero.
	hw   int
	regs [MaxRegsPerFrame]uint64
}

// regBound is fn's register bound (ir.Function.RegBound), capped at the
// register file's size: an instruction naming a register past it faults
// on its own.
func regBound(fn *ir.Function) int { return min(fn.RegBound(), MaxRegsPerFrame) }

// Machine executes one guest program. It is not safe for concurrent use.
type Machine struct {
	Prog  *ir.Program
	Mem   *mem.Space
	Clock *Clock
	Costs CostModel

	OS          SyscallHandler
	Runtime     RuntimeHooks
	Mitigations []Mitigation

	// SysRegs holds the registers latched at the most recent syscall
	// instruction; the kernel and monitor read guest state from here.
	SysRegs Regs

	rax uint64 // return-value register
	rsp uint64
	rbp uint64

	frames []*frame

	// Steps counts executed instructions; MaxSteps bounds runaway guests
	// (0 means no limit).
	Steps    uint64
	MaxSteps uint64

	// CallDepth tracks current user-frame depth; DepthSum/DepthN/MinDepth/
	// MaxDepth aggregate depth at syscall instructions for §9.2 statistics.
	CallDepth int
	DepthSum  uint64
	DepthN    uint64
	MinDepth  int
	MaxDepth  int

	hooks map[uint64]Hook
	pool  *Pool // WithPool's pool, or nil

	// trace, when non-nil, receives one disassembled line per executed
	// instruction (a debugging aid; costs nothing when disabled).
	trace      io.Writer
	traceLimit uint64

	halted bool
	exit   int64
}

// Option configures a Machine.
type Option func(*Machine)

// WithOS installs the kernel syscall handler.
func WithOS(os SyscallHandler) Option { return func(m *Machine) { m.OS = os } }

// WithMitigations appends VM-enforced mitigations.
func WithMitigations(ms ...Mitigation) Option {
	return func(m *Machine) { m.Mitigations = append(m.Mitigations, ms...) }
}

// WithClock shares an external clock.
func WithClock(c *Clock) Option { return func(m *Machine) { m.Clock = c } }

// WithMaxSteps bounds the number of executed instructions.
func WithMaxSteps(n uint64) Option { return func(m *Machine) { m.MaxSteps = n } }

// Pool holds what released Machines leave behind, for Machines to use
// before they allocate: guest page backings and page arrays (Pages) and
// one stack of register frames. Like a mem.FreeList, it belongs to one
// goroutine at a time and has no lock: give each goroutine that runs
// guests one after another its own pool. The zero value is empty.
type Pool struct {
	Pages mem.FreeList
	// frames is a released frame stack of length 0: its frames sit past
	// the top, where pushFrame reuses, and zeroes, a parked frame.
	frames []*frame
}

// Frames returns the number of register frames the pool holds.
func (p *Pool) Frames() int {
	n := 0
	for _, f := range p.frames[:cap(p.frames)] {
		if f != nil {
			n++
		}
	}
	return n
}

// WithPool backs the machine's guest pages (see mem.NewSpaceFrom) and
// register frames from p before it allocates. p must belong to the
// goroutine that runs the machine; both return to it on m.Release.
func WithPool(p *Pool) Option {
	return func(m *Machine) {
		m.pool = p
		m.Mem = mem.NewSpaceFrom(&p.Pages)
		m.frames, p.frames = p.frames, nil
	}
}

// WithTrace streams a disassembly line per executed instruction to w, up
// to max lines (0 = unlimited). For debugging guest programs.
func WithTrace(w io.Writer, max uint64) Option {
	return func(m *Machine) { m.trace = w; m.traceLimit = max }
}

// New creates a machine for a linked program and maps its image (globals
// and stack). The program must already be linked and validated.
func New(prog *ir.Program, opts ...Option) (*Machine, error) {
	if !prog.Linked() {
		if err := prog.Link(); err != nil {
			return nil, err
		}
	}
	m := &Machine{
		Prog:     prog,
		Clock:    &Clock{},
		Costs:    DefaultCosts(),
		hooks:    map[uint64]Hook{},
		MinDepth: 1 << 30,
	}
	for _, o := range opts {
		o(m)
	}
	if m.Mem == nil {
		m.Mem = mem.NewSpace()
	}
	if err := m.loadImage(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Machine) loadImage() error {
	// Globals: one RW span covering all of them.
	var hi uint64 = ir.DataBase
	for _, g := range m.Prog.Globals {
		if end := g.Addr + uint64(g.Size); end > hi {
			hi = end
		}
	}
	if hi > ir.DataBase {
		if err := m.Mem.Map(ir.DataBase, mem.RoundUp(hi-ir.DataBase), mem.PermRW); err != nil {
			return err
		}
		for _, g := range m.Prog.Globals {
			if len(g.Init) > 0 {
				if err := m.Mem.Poke(g.Addr, g.Init); err != nil {
					return err
				}
			}
		}
	}
	// Stack.
	if err := m.Mem.Map(ir.StackTop-ir.StackSize, ir.StackSize, mem.PermRW); err != nil {
		return err
	}
	m.rsp = ir.StackTop - 64
	m.rbp = m.rsp
	// Sentinel frame: return address 0 marks the bottom of the stack for
	// both the VM and the monitor's unwinder.
	if err := m.Mem.WriteUint(m.rbp, 0, 8); err != nil {
		return err
	}
	if err := m.Mem.WriteUint(m.rbp+8, 0, 8); err != nil {
		return err
	}
	return nil
}

// Release ends the machine: its guest pages go back to its pool's list
// (Space.Release) and, for a machine made WithPool, its register frames
// to the pool. Call it once the guest is gone and nothing will run it or
// read its memory again.
func (m *Machine) Release() {
	m.Mem.Release()
	if p := m.pool; p != nil && cap(m.frames) > cap(p.frames) {
		p.frames = m.frames[:0]
	}
	m.frames, m.pool = nil, nil
}

// AddHook installs a breakpoint at a code address. Installing at an address
// that already has a hook replaces it.
func (m *Machine) AddHook(addr uint64, h Hook) { m.hooks[addr] = h }

// HookFunc installs a breakpoint at instruction idx of the named function.
func (m *Machine) HookFunc(name string, idx int, h Hook) error {
	f := m.Prog.Func(name)
	if f == nil {
		return fmt.Errorf("vm: no function %q", name)
	}
	if idx < 0 || idx >= len(f.Code) {
		return fmt.Errorf("vm: %s has no instruction %d", name, idx)
	}
	m.AddHook(f.InstrAddr(idx), h)
	return nil
}

// runHook runs the breakpoint at instruction idx of fn, the one the top
// frame is about to execute, if one is installed. A hook may redirect
// control, so the caller reloads the top frame after it. exec calls it
// only when some hook is installed, so a machine without hooks neither
// computes the address nor probes the map.
func (m *Machine) runHook(fn *ir.Function, idx int) error {
	h, ok := m.hooks[fn.InstrAddr(idx)]
	if !ok {
		return nil
	}
	if err := h(m); err != nil {
		return err
	}
	fr := m.frames[len(m.frames)-1]
	if fr.idx >= len(fr.fn.Code) {
		return &ControlFault{Addr: fr.fn.InstrAddr(fr.idx), Why: "hook left pc past function end"}
	}
	return nil
}

// Halted reports whether the guest has stopped (exit, kill, or fault).
func (m *Machine) Halted() bool { return m.halted }

// ExitCode returns the guest's exit status (valid once halted by exit).
func (m *Machine) ExitCode() int64 { return m.exit }

// RBP returns the current frame pointer (attack scenarios use it to locate
// stack data).
func (m *Machine) RBP() uint64 { return m.rbp }

// RSP returns the current stack pointer.
func (m *Machine) RSP() uint64 { return m.rsp }

// CurrentFunc returns the executing function and next-instruction index.
func (m *Machine) CurrentFunc() (*ir.Function, int) {
	if len(m.frames) == 0 {
		return nil, 0
	}
	top := m.frames[len(m.frames)-1]
	return top.fn, top.idx
}

// Run calls the program's entry function with no arguments and executes to
// termination. It returns nil for a clean exit(0); an *ExitError for a
// nonzero exit; a *KillError if a defense killed the guest; or a fault.
func (m *Machine) Run() error {
	entry := m.Prog.Func(m.Prog.Entry)
	if entry == nil {
		return fmt.Errorf("vm: no entry function %q", m.Prog.Entry)
	}
	if err := m.pushCall(entry, nil, 0); err != nil {
		return err
	}
	return m.run(0)
}

// CallFunction invokes an arbitrary guest function with the given word
// arguments and runs it to completion (used by workload drivers to push
// individual requests through an application). The machine must not be
// halted.
func (m *Machine) CallFunction(name string, args ...uint64) (uint64, error) {
	if m.halted {
		return 0, errors.New("vm: machine is halted")
	}
	f := m.Prog.Func(name)
	if f == nil {
		return 0, fmt.Errorf("vm: no function %q", name)
	}
	if f.NumParams != len(args) {
		return 0, fmt.Errorf("vm: %s takes %d args, got %d", name, f.NumParams, len(args))
	}
	base := len(m.frames)
	if err := m.pushCall(f, args, 0); err != nil {
		return 0, err
	}
	if err := m.run(base); err != nil {
		return 0, err
	}
	return m.rax, nil
}

// run executes until the frame stack shrinks to the given depth or the
// guest halts.
func (m *Machine) run(depth int) error {
	for len(m.frames) > depth && !m.halted {
		if err := m.exec(); err != nil {
			m.halted = true
			var xe *ExitError
			if errors.As(err, &xe) {
				m.exit = xe.Code
				if xe.Code == 0 {
					return nil
				}
			}
			return err
		}
	}
	return nil
}

// pushCall sets up a memory frame and register frame for fn. retaddr 0
// marks a VM-initiated call (CallFunction / entry): returning to it pops the
// frame and stops unwinding.
func (m *Machine) pushCall(fn *ir.Function, args []uint64, retaddr uint64) error {
	for _, mit := range m.Mitigations {
		mit.OnCall(m, retaddr)
	}
	localSize := uint64(fn.FrameLocalSize())
	need := localSize + 16
	if m.rsp < ir.StackTop-ir.StackSize+need+mem.PageSize {
		return &ControlFault{Addr: m.rsp, Why: "stack overflow"}
	}
	// The frame link, the return address and the argument spills go
	// through the word cache's inlined accessor, as a Store does, and
	// through the checked WriteUint, which raises every fault and fills
	// the cache, on a miss.
	newRbp := m.rsp - 16
	if !m.Mem.WriteUintCached(newRbp, m.rbp, 8) {
		if err := m.Mem.WriteUint(newRbp, m.rbp, 8); err != nil {
			return err
		}
	}
	if !m.Mem.WriteUintCached(newRbp+8, retaddr, 8) {
		if err := m.Mem.WriteUint(newRbp+8, retaddr, 8); err != nil {
			return err
		}
	}
	m.rbp = newRbp
	m.rsp = newRbp - localSize
	// Parameter spill slots open the slot area, one word each.
	for i, a := range args {
		if at := m.rsp + uint64(i)*ir.WordSize; !m.Mem.WriteUintCached(at, a, 8) {
			if err := m.Mem.WriteUint(at, a, 8); err != nil {
				return err
			}
		}
	}
	m.pushFrame(fn, 0)
	return nil
}

// pushFrame makes a register frame for fn, resuming at instruction idx, the
// new top of the frame stack. It reuses the frame a doRet, or a machine
// released into this machine's Pool, parked just past the top of
// m.frames, zeroing the registers below its high-water mark (all the
// others are zero already), so the callee reads exactly what a freshly
// allocated frame would give it. Reuse is sound because nothing holds a
// *frame once doRet has popped it or its machine has been released.
func (m *Machine) pushFrame(fn *ir.Function, idx int) {
	n := len(m.frames)
	if n < cap(m.frames) {
		if f := m.frames[:n+1][n]; f != nil {
			clear(f.regs[:f.hw])
			f.fn, f.idx, f.hw = fn, idx, regBound(fn)
			m.frames = m.frames[:n+1]
			m.CallDepth = n + 1
			return
		}
	}
	m.frames = append(m.frames, &frame{fn: fn, idx: idx, hw: regBound(fn)})
	m.CallDepth = len(m.frames)
}

func (m *Machine) slotAddr(fn *ir.Function, slot int) uint64 {
	return m.rbp + uint64(fn.SlotDisp(slot))
}

// SlotAddr resolves the address of the named slot in the *current* frame.
// Attack drivers and tests use it to aim corruptions.
func (m *Machine) SlotAddr(name string) (uint64, error) {
	fn, _ := m.CurrentFunc()
	if fn == nil {
		return 0, errors.New("vm: no active frame")
	}
	idx := fn.SlotIndex(name)
	if idx < 0 {
		return 0, fmt.Errorf("vm: %s has no slot %q", fn.Name, name)
	}
	return m.slotAddr(fn, idx), nil
}

// val reads an operand: an immediate, or a register of regs.
func val(regs *[MaxRegsPerFrame]uint64, o ir.Operand) uint64 {
	if o.Kind == ir.OperandImm {
		return uint64(o.Imm)
	}
	return regs[o.Reg]
}

// exec runs the top frame. It keeps the frame, its code, the next
// instruction index, the step count and the cycles charged since entry
// in locals, so the straight-line instructions (Const, Mov, Bin, Load,
// Store, LocalAddr, GlobalAddr, FuncAddr, Jump, BranchNZ) write neither
// the Machine nor the shared Clock. They make no call either: Load and
// Store go through the word cache's inlined accessors and LocalAddr reads
// the slot table Link recorded, so only exits call out. It leaves at the
// first Call, CallInd, Ret, Syscall or Intrinsic, which it executes; at a
// Load or Store the word cache misses, or a LocalAddr Link's table cannot
// answer, which miss executes; and at any fault. With a hook or a trace
// installed it leaves after one instruction. Before every exit it writes
// fr.idx, m.Steps and m.Clock back (sync), so whatever runs next (the
// callee's set-up, the kernel, the monitor, a mitigation, a hook, the
// checked word accessors or the caller that sees a fault) reads exactly
// the pc, steps and clock an instruction-at-a-time interpreter would
// leave; run then calls exec again.
func (m *Machine) exec() error {
	fr := m.frames[len(m.frames)-1]
	fn, idx, regs := fr.fn, fr.idx, &fr.regs
	code := fn.Code
	instrCost := m.Costs.Instr
	steps, limit := m.Steps, m.MaxSteps
	if limit == 0 {
		limit = math.MaxUint64
	}
	single := len(m.hooks) != 0 || m.trace != nil
	var cycles uint64
	for {
		if steps >= limit {
			m.sync(fr, idx, steps, cycles)
			return &ControlFault{Why: "step budget exhausted (runaway guest?)"}
		}
		steps++
		if idx >= len(code) {
			m.sync(fr, idx, steps, cycles)
			return &ControlFault{Addr: fn.InstrAddr(idx), Why: "execution ran off function end"}
		}
		if single {
			// Only the first instruction since entry gets here, so
			// fr.idx and the clock are current; the hook may move the
			// frame, run guest code or change Steps.
			m.Steps = steps
			if len(m.hooks) != 0 {
				if err := m.runHook(fn, idx); err != nil {
					return err
				}
				fr = m.frames[len(m.frames)-1]
				fn, idx, regs = fr.fn, fr.idx, &fr.regs
				code = fn.Code
				instrCost = m.Costs.Instr
				steps = m.Steps
			}
			if m.trace != nil && (m.traceLimit == 0 || steps <= m.traceLimit) {
				fmt.Fprintf(m.trace, "%#x %s+%d: %s\n", fn.InstrAddr(idx), fn.Name, idx, code[idx].String())
			}
		}
		in := &code[idx]
		idx++

		switch in.Kind {
		case ir.Const:
			cycles += instrCost
			regs[in.Dst] = uint64(in.Imm)
		case ir.Mov:
			cycles += instrCost
			regs[in.Dst] = val(regs, in.Src)
		case ir.Bin:
			// The ALU is inline, so arithmetic makes no call.
			cycles += instrCost
			a, b := val(regs, in.A), val(regs, in.B)
			var v uint64
			switch in.Op {
			case ir.OpAdd:
				v = a + b
			case ir.OpSub:
				v = a - b
			case ir.OpMul:
				v = a * b
			case ir.OpDiv:
				if b == 0 {
					m.sync(fr, idx, steps, cycles)
					return &ControlFault{Why: "division by zero"}
				}
				v = uint64(int64(a) / int64(b))
			case ir.OpMod:
				if b == 0 {
					m.sync(fr, idx, steps, cycles)
					return &ControlFault{Why: "modulo by zero"}
				}
				v = uint64(int64(a) % int64(b))
			case ir.OpAnd:
				v = a & b
			case ir.OpOr:
				v = a | b
			case ir.OpXor:
				v = a ^ b
			case ir.OpShl:
				v = a << (b & 63)
			case ir.OpShr:
				v = a >> (b & 63)
			case ir.OpEq:
				v = b2u(a == b)
			case ir.OpNe:
				v = b2u(a != b)
			case ir.OpLt:
				v = b2u(int64(a) < int64(b))
			case ir.OpLe:
				v = b2u(int64(a) <= int64(b))
			case ir.OpGt:
				v = b2u(int64(a) > int64(b))
			case ir.OpGe:
				v = b2u(int64(a) >= int64(b))
			default:
				m.sync(fr, idx, steps, cycles)
				return fmt.Errorf("vm: unknown op %v", in.Op)
			}
			regs[in.Dst] = v
		case ir.Load:
			cycles += m.Costs.MemAccess
			v, ok := m.Mem.ReadUintCached(regs[in.Addr]+uint64(in.Off), in.Size)
			if !ok {
				m.sync(fr, idx, steps, cycles)
				return m.miss(fn, regs, in)
			}
			regs[in.Dst] = v
		case ir.Store:
			cycles += m.Costs.MemAccess
			if !m.Mem.WriteUintCached(regs[in.Addr]+uint64(in.Off), val(regs, in.Src), in.Size) {
				m.sync(fr, idx, steps, cycles)
				return m.miss(fn, regs, in)
			}
		case ir.LocalAddr:
			cycles += instrCost
			d, ok := fn.LinkedSlotDisp(in.Slot)
			if !ok {
				m.sync(fr, idx, steps, cycles)
				return m.miss(fn, regs, in)
			}
			regs[in.Dst] = m.rbp + uint64(d) + uint64(in.Off)
		case ir.GlobalAddr:
			cycles += instrCost
			g := in.Global
			if g == nil {
				m.sync(fr, idx, steps, cycles)
				return fmt.Errorf("vm: undefined global %q", in.Sym)
			}
			regs[in.Dst] = g.Addr + uint64(in.Off)
		case ir.FuncAddr:
			cycles += instrCost
			f := in.Callee
			if f == nil {
				m.sync(fr, idx, steps, cycles)
				return fmt.Errorf("vm: undefined function %q", in.Sym)
			}
			regs[in.Dst] = f.Base
		case ir.Jump:
			cycles += instrCost
			idx = in.ToIndex
		case ir.BranchNZ:
			cycles += instrCost
			if val(regs, in.Src) != 0 {
				idx = in.ToIndex
			}
		case ir.Call, ir.CallInd, ir.Syscall, ir.Ret, ir.Intrinsic:
			m.sync(fr, idx, steps, cycles)
			return m.transfer(fr, fn, in)
		default:
			m.sync(fr, idx, steps, cycles)
			return fmt.Errorf("vm: unknown instruction kind %v", in.Kind)
		}
		if single {
			m.sync(fr, idx, steps, cycles)
			return nil
		}
	}
}

// sync writes exec's locals back to the frame, the machine and the
// shared clock.
func (m *Machine) sync(fr *frame, idx int, steps, cycles uint64) {
	fr.idx, m.Steps = idx, steps
	m.Clock.Cycles += cycles
}

// miss finishes a Load, Store or LocalAddr of fn whose inline fast path
// exec could not take, after exec has counted and charged it and synced:
// a word the cache does not hold goes through the checked accessors,
// which raise every fault and fill the cache, and a slot Link did not
// record is computed afresh. A slot the function does not have is an
// error, as an undefined symbol is.
func (m *Machine) miss(fn *ir.Function, regs *[MaxRegsPerFrame]uint64, in *ir.Instr) error {
	switch in.Kind {
	case ir.Load:
		v, err := m.Mem.ReadUint(regs[in.Addr]+uint64(in.Off), in.Size)
		if err != nil {
			return err
		}
		regs[in.Dst] = v
		return nil
	case ir.Store:
		return m.Mem.WriteUint(regs[in.Addr]+uint64(in.Off), val(regs, in.Src), in.Size)
	}
	if !fn.HasSlot(in.Slot) {
		return fmt.Errorf("vm: %s has no slot %d", fn.Name, in.Slot)
	}
	regs[in.Dst] = m.rbp + uint64(fn.SlotDisp(in.Slot)) + uint64(in.Off)
	return nil
}

// transfer executes an instruction that leaves the frame or hands
// control to the kernel or the runtime: Call, CallInd, Ret, Syscall or
// Intrinsic. fr.idx is already past it.
func (m *Machine) transfer(fr *frame, fn *ir.Function, in *ir.Instr) error {
	switch in.Kind {
	case ir.Call:
		m.Clock.Add(m.Costs.Call)
		callee := in.Callee
		if callee == nil {
			return fmt.Errorf("vm: undefined function %q", in.Sym)
		}
		return m.doCall(fr, fn, in, callee, true)
	case ir.CallInd:
		m.Clock.Add(m.Costs.CallInd)
		target := fr.regs[in.Target]
		for _, mit := range m.Mitigations {
			if err := mit.OnIndirectCall(m, in, target); err != nil {
				return err
			}
		}
		callee, idx := m.Prog.FuncAt(target)
		if callee == nil || idx != 0 {
			return &ControlFault{Addr: target, Why: "indirect call to non-function address"}
		}
		return m.doCall(fr, fn, in, callee, false)
	case ir.Syscall:
		return m.doSyscall(fr, fn, in)
	case ir.Ret:
		m.Clock.Add(m.Costs.Ret)
		return m.doRet(fr, in)
	}
	return m.doIntrinsic(fr, fn, in)
}

// doCall transfers into callee. Direct calls are arity-checked (the
// validator guarantees them anyway); indirect calls are not — as on real
// hardware, a hijacked function pointer reaches its target with whatever
// happens to be in the argument registers, and missing arguments arrive as
// junk (zero here).
func (m *Machine) doCall(fr *frame, fn *ir.Function, in *ir.Instr, callee *ir.Function, strict bool) error {
	if strict && len(in.Args) != callee.NumParams {
		return fmt.Errorf("vm: call %s with %d args, want %d", callee.Name, len(in.Args), callee.NumParams)
	}
	// Stage the arguments on the Go stack: pushCall only reads them.
	var staged [8]uint64
	var args []uint64
	if callee.NumParams <= len(staged) {
		args = staged[:callee.NumParams]
	} else {
		args = make([]uint64, callee.NumParams)
	}
	for i := 0; i < len(in.Args) && i < callee.NumParams; i++ {
		args[i] = val(&fr.regs, in.Args[i])
	}
	retaddr := fn.InstrAddr(fr.idx) // fr.idx already advanced past the call
	return m.pushCall(callee, args, retaddr)
}

func (m *Machine) doRet(fr *frame, in *ir.Instr) error {
	m.rax = val(&fr.regs, in.Src)
	// The return address and saved frame pointer come from guest memory:
	// this is the ROP surface. Both go through the word cache first, as
	// a Load does; a cached page holds the bytes a checked read returns.
	var err error
	retaddr, ok := m.Mem.ReadUintCached(m.rbp+8, 8)
	if !ok {
		if retaddr, err = m.Mem.ReadUint(m.rbp+8, 8); err != nil {
			return err
		}
	}
	savedRbp, ok := m.Mem.ReadUintCached(m.rbp, 8)
	if !ok {
		if savedRbp, err = m.Mem.ReadUint(m.rbp, 8); err != nil {
			return err
		}
	}
	for _, mit := range m.Mitigations {
		if err := mit.OnRet(m, retaddr); err != nil {
			return err
		}
	}
	m.rsp = m.rbp + 16
	m.rbp = savedRbp
	m.frames = m.frames[:len(m.frames)-1]
	m.CallDepth = len(m.frames)
	if retaddr == 0 {
		// Returned to the VM (entry or CallFunction boundary).
		return nil
	}
	var top *frame
	if n := len(m.frames); n > 0 {
		top = m.frames[n-1]
	}
	tf, idx := m.returnSite(top, retaddr)
	if tf == nil {
		return &ControlFault{Addr: retaddr, Why: "return to non-code address"}
	}
	if top == nil {
		// A hijacked bottom frame: fabricate a register frame so gadget
		// execution can proceed (registers are scratch at this point).
		m.pushFrame(tf, idx)
		return nil
	}
	if tf != top.fn {
		// A hijacked return switches the caller's frame to another
		// function, which may write registers past the frame's mark.
		top.fn = tf
		top.hw = max(top.hw, regBound(tf))
	}
	top.idx = idx
	// Normal return: complete `dst = callee()` if the instruction before
	// the return site is a call (mirrors the value arriving in RAX).
	if idx > 0 {
		prev := &tf.Code[idx-1]
		if prev.Kind == ir.Call || prev.Kind == ir.CallInd {
			top.regs[prev.Dst] = m.rax
		}
	}
	return nil
}

// returnSite resolves the return address retaddr to a function and
// instruction index. An ordinary return lands where the caller frame
// resumes, its own next instruction, and is resolved without searching
// the program; any other address (a hijacked return, a gadget, a caller
// a hook moved) goes through Program.FuncAt.
func (m *Machine) returnSite(caller *frame, retaddr uint64) (*ir.Function, int) {
	if caller != nil && uint(caller.idx) < uint(len(caller.fn.Code)) && caller.fn.InstrAddr(caller.idx) == retaddr {
		return caller.fn, caller.idx
	}
	return m.Prog.FuncAt(retaddr)
}

func (m *Machine) doSyscall(fr *frame, fn *ir.Function, in *ir.Instr) error {
	if m.OS == nil {
		return errors.New("vm: syscall with no OS attached")
	}
	var regs Regs
	regs.RAX = val(&fr.regs, in.Args[0])
	for i := 1; i < len(in.Args) && i <= 6; i++ {
		v := val(&fr.regs, in.Args[i])
		switch i {
		case 1:
			regs.RDI = v
		case 2:
			regs.RSI = v
		case 3:
			regs.RDX = v
		case 4:
			regs.R10 = v
		case 5:
			regs.R8 = v
		case 6:
			regs.R9 = v
		}
	}
	regs.RIP = fn.InstrAddr(fr.idx - 1)
	regs.RSP = m.rsp
	regs.RBP = m.rbp
	m.SysRegs = regs

	// Call-depth statistics at syscall points (§9.2).
	d := len(m.frames)
	m.DepthSum += uint64(d)
	m.DepthN++
	if d < m.MinDepth {
		m.MinDepth = d
	}
	if d > m.MaxDepth {
		m.MaxDepth = d
	}

	ret, err := m.OS.Syscall(m)
	if err != nil {
		return err
	}
	fr.regs[in.Dst] = uint64(ret)
	m.rax = uint64(ret)
	return nil
}

func (m *Machine) doIntrinsic(fr *frame, fn *ir.Function, in *ir.Instr) error {
	switch in.IK {
	case ir.CtxWriteMem:
		m.Clock.Add(m.Costs.WriteMem)
		if m.Runtime == nil {
			return nil
		}
		return m.Runtime.CtxWriteMem(m, fr.regs[in.Addr], in.Size)
	case ir.CtxBindMem:
		m.Clock.Add(m.Costs.Bind)
		if m.Runtime == nil {
			return nil
		}
		return m.Runtime.CtxBindMem(m, fn.InstrAddr(in.BindSite), in.Pos, fr.regs[in.Addr])
	case ir.CtxBindConst:
		m.Clock.Add(m.Costs.Bind)
		if m.Runtime == nil {
			return nil
		}
		return m.Runtime.CtxBindConst(m, fn.InstrAddr(in.BindSite), in.Pos, in.Imm)
	}
	return fmt.Errorf("vm: unknown intrinsic %v", in.IK)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// AvgSyscallDepth returns the mean call depth observed at syscall
// instructions, or 0 if none executed.
func (m *Machine) AvgSyscallDepth() float64 {
	if m.DepthN == 0 {
		return 0
	}
	return float64(m.DepthSum) / float64(m.DepthN)
}

// Unwind walks the frame-pointer chain from the latched syscall registers,
// returning the return addresses from innermost outward, stopping at the
// sentinel (0) or after max frames. This is the same walk the monitor
// performs through ptrace; the VM exposes it for tests and diagnostics.
func (m *Machine) Unwind(max int) ([]uint64, error) {
	var out []uint64
	bp := m.SysRegs.RBP
	for i := 0; i < max && bp != 0; i++ {
		ret, err := m.Mem.PeekUint(bp+8, 8)
		if err != nil {
			return out, err
		}
		if ret == 0 {
			break
		}
		out = append(out, ret)
		bp, err = m.Mem.PeekUint(bp, 8)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
