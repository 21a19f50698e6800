// Package ir defines the intermediate representation for guest programs.
//
// The IR is a small register machine that stands in for LLVM IR in the
// BASTION pipeline: the compiler analyses (call-type classification,
// control-flow-graph extraction, and argument-integrity use-def tracing)
// operate on it, and the virtual machine in internal/vm executes it with a
// memory-realized call stack so that the attacks from the paper's threat
// model (return-address overwrites, function-pointer hijacks, non-pointer
// index corruption) are expressible.
//
// Conventions:
//   - Every value is a 64-bit word. Loads and stores may narrow to 1, 2 or
//     4 bytes.
//   - Each function has an unlimited set of virtual registers, private to a
//     frame and not addressable; parameters and declared locals live in the
//     frame's stack memory and are therefore corruptible.
//   - Every instruction occupies InstrSize bytes of code address space, so
//     return addresses and callsite addresses are ordinary numbers that can
//     be stored, leaked, and overwritten in guest memory.
//   - System calls appear only inside wrapper functions (one Syscall
//     instruction per wrapper), mirroring how libc exposes them; call-type
//     classification inspects how wrappers are referenced.
package ir

import "fmt"

// InstrSize is the number of code-address-space bytes per instruction.
const InstrSize = 4

// WordSize is the size in bytes of a machine word.
const WordSize = 8

// Reg names a virtual register within a function. Registers are per-frame
// and cannot be addressed by guest memory operations.
type Reg int

// Op enumerates binary ALU operations, including comparisons that yield 0/1.
type Op int

// Binary operations.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv // signed; division by zero faults the VM
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical shift right
	OpEq
	OpNe
	OpLt // signed <
	OpLe // signed <=
	OpGt // signed >
	OpGe // signed >=
)

var opNames = [...]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// FoldConst evaluates a op b on constants exactly as the VM's ALU does, for
// the ops that cannot fault and are not comparisons: add, sub, mul, and,
// or, xor and the two shifts, whose count is taken mod 64. ok is false for
// every other op.
func FoldConst(op Op, a, b int64) (v int64, ok bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		return a << (uint64(b) & 63), true
	case OpShr:
		return int64(uint64(a) >> (uint64(b) & 63)), true
	}
	return 0, false
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	OperandReg OperandKind = iota
	OperandImm
)

// Operand is either a register or a 64-bit immediate.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  int64
}

// R returns a register operand.
func R(r Reg) Operand { return Operand{Kind: OperandReg, Reg: r} }

// Imm returns an immediate operand.
func Imm(v int64) Operand { return Operand{Kind: OperandImm, Imm: v} }

func (o Operand) String() string {
	if o.Kind == OperandReg {
		return fmt.Sprintf("r%d", o.Reg)
	}
	return fmt.Sprintf("%d", o.Imm)
}

// Kind enumerates instruction kinds.
type Kind uint8

// Instruction kinds.
const (
	// Const: dst = Imm.
	Const Kind = iota
	// Mov: dst = Src.
	Mov
	// Bin: dst = Op(A, B).
	Bin
	// Load: dst = mem[Addr+Off] (Size bytes, zero-extended).
	Load
	// Store: mem[Addr+Off] = Src (Size bytes).
	Store
	// LocalAddr: dst = address of local slot Slot plus Off.
	LocalAddr
	// GlobalAddr: dst = address of global Sym plus Off.
	GlobalAddr
	// FuncAddr: dst = entry address of function Sym (address-taken).
	FuncAddr
	// Call: dst = Sym(Args...); a direct call.
	Call
	// CallInd: dst = (*Target)(Args...); an indirect call through a register
	// holding a code address. TypeSig records the callsite's expected
	// function signature for baseline LLVM-CFI checking.
	CallInd
	// Syscall: dst = syscall(Args...); Args[0] is the syscall number and
	// Args[1:] the up-to-6 arguments. Only wrapper functions contain this.
	Syscall
	// Jump: unconditional branch to label.
	Jump
	// BranchNZ: if Src != 0 branch to label, else fall through.
	BranchNZ
	// Ret: return Src to the caller (pops the frame; the return address is
	// read from guest memory, so a corrupted frame diverts control).
	Ret
	// Intrinsic: a BASTION runtime-library operation inserted by the
	// instrumentation pass (see IntrinsicKind).
	Intrinsic
)

var kindNames = [...]string{
	Const: "const", Mov: "mov", Bin: "bin", Load: "load", Store: "store",
	LocalAddr: "localaddr", GlobalAddr: "globaladdr", FuncAddr: "funcaddr",
	Call: "call", CallInd: "callind", Syscall: "syscall", Jump: "jmp",
	BranchNZ: "bnz", Ret: "ret", Intrinsic: "intrinsic",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IntrinsicKind enumerates BASTION runtime-library intrinsics (Table 2 of
// the paper). They are no-ops unless the VM runs with a shadow-memory
// runtime attached.
type IntrinsicKind uint8

// Intrinsics.
const (
	// CtxWriteMem updates the shadow copy of the Size bytes at address Addr.
	CtxWriteMem IntrinsicKind = iota
	// CtxBindMem binds the memory at address Addr to argument position Pos
	// of the callsite identified by BindSite.
	CtxBindMem
	// CtxBindConst binds constant Imm to argument position Pos of the
	// callsite identified by BindSite.
	CtxBindConst
)

func (ik IntrinsicKind) String() string {
	switch ik {
	case CtxWriteMem:
		return "ctx_write_mem"
	case CtxBindMem:
		return "ctx_bind_mem"
	case CtxBindConst:
		return "ctx_bind_const"
	}
	return fmt.Sprintf("intrinsic(%d)", uint8(ik))
}

// Instr is a single IR instruction. A single struct (rather than an
// interface) keeps the interpreter loop allocation-free.
type Instr struct {
	Kind Kind
	IK   IntrinsicKind // Intrinsic; beside Kind so the two bytes share a word

	Dst  Reg     // Const, Mov, Bin, Load, LocalAddr, GlobalAddr, FuncAddr, Call, CallInd, Syscall
	Src  Operand // Mov, Store, BranchNZ, Ret
	A, B Operand // Bin
	Op   Op      // Bin

	Addr Reg   // Load, Store base address register; Intrinsic address
	Off  int64 // Load, Store, LocalAddr, GlobalAddr displacement
	Size int64 // Load, Store width (1,2,4,8); Intrinsic size

	Slot int    // LocalAddr slot index
	Sym  string // GlobalAddr, FuncAddr, Call target name

	// Callee and Global are Sym resolved by Link: Callee for Call and
	// FuncAddr, Global for GlobalAddr. They stay nil for a name the program
	// does not define.
	Callee *Function
	Global *Global

	Target Reg       // CallInd target register
	Args   []Operand // Call, CallInd, Syscall arguments

	Label   string // Jump, BranchNZ target label (resolved by Link)
	ToIndex int    // resolved branch target instruction index

	TypeSig string // CallInd expected signature (LLVM-CFI baseline)

	Pos      int   // Intrinsic argument position (1-based)
	Imm      int64 // Const value; CtxBindConst constant
	BindSite int   // Intrinsic: instruction index of the bound callsite

	// Comment is an optional annotation carried through printing; analyses
	// ignore it.
	Comment string
}

// Slot describes a named local variable living in the frame's stack memory.
type Slot struct {
	Name string
	Size int64
}

// Function is a guest function.
type Function struct {
	Name string
	// NumParams is the number of incoming word-sized parameters. Parameters
	// are spilled by the VM into the first NumParams local slots (8 bytes
	// each), before the declared Locals, so they are memory-backed and
	// corruptible like C stack parameters.
	NumParams int
	// Locals are declared in addition to the parameter spill slots.
	Locals []Slot
	// NumRegs is the number of virtual registers used (set by the Builder).
	NumRegs int
	// TypeSig is the function's signature string, e.g. "i64(i64,i64)";
	// used by the LLVM-CFI baseline for coarse type matching.
	TypeSig string
	// Code is the instruction sequence.
	Code []Instr

	// Base is the code address of instruction 0; assigned by Program.Link.
	Base uint64

	labels map[string]int // label -> instruction index (pre-Link)
	// slots is the frame layout Link recorded: the displacement from the
	// frame pointer of every slot, then of the slot area's bottom, which
	// is minus the area's size.
	slots []int64
	// regBound is the register bound Link recorded (see RegBound), for
	// code of length regCode.
	regBound, regCode int
}

// InstrAddr returns the code address of instruction index i.
func (f *Function) InstrAddr(i int) uint64 { return f.Base + uint64(i)*InstrSize }

// Labels exposes the label table (label name → instruction index) for
// passes that splice instructions and must remap targets. Mutating the
// returned map changes the function.
func (f *Function) Labels() map[string]int {
	if f.labels == nil {
		f.labels = map[string]int{}
	}
	return f.labels
}

// FrameSlots returns the full slot layout of the frame: parameter spill
// slots followed by declared locals.
func (f *Function) FrameSlots() []Slot {
	slots := make([]Slot, 0, f.NumParams+len(f.Locals))
	for i := 0; i < f.NumParams; i++ {
		slots = append(slots, Slot{Name: fmt.Sprintf("p%d", i), Size: WordSize})
	}
	return append(slots, f.Locals...)
}

// SlotDisp returns the displacement of frame slot i from the frame
// pointer. The slot area lies directly below the frame pointer, and its
// slots are laid out in FrameSlots order, 8-byte aligned: the NumParams
// word-sized parameter spill slots first, then the declared Locals. So
// slot i starts SlotDisp(i) + FrameLocalSize() bytes into the area, and
// SlotDisp is never positive. It panics if f has no slot i; HasSlot
// tells.
func (f *Function) SlotDisp(i int) int64 {
	if !f.HasSlot(i) {
		panic(fmt.Sprintf("ir: function %s has no slot %d", f.Name, i))
	}
	return f.slotTable()[i]
}

// HasSlot reports whether i indexes one of f's frame slots.
func (f *Function) HasSlot(i int) bool { return uint(i) < uint(f.NumParams+len(f.Locals)) }

// LinkedSlotDisp is SlotDisp as a table read for the interpreter's loop:
// it returns the displacement Link recorded for slot i and true, or false
// when f was never linked, its slot count changed since, or it has no
// slot i. It makes no call, so it inlines.
func (f *Function) LinkedSlotDisp(i int) (int64, bool) {
	d := f.slots
	if len(d) != f.NumParams+len(f.Locals)+1 || uint(i) >= uint(len(d)-1) {
		return 0, false
	}
	return d[i], true
}

// RegBound returns the number of registers a frame running f may write:
// NumRegs, or one more than the highest register any instruction names
// when that is larger, as it can be in a program that was never
// validated. Link records it, so the interpreter's call path does not
// walk the code; a function never linked, whose code length changed
// since, or whose NumRegs grew past the record, gets it computed afresh.
func (f *Function) RegBound() int {
	if f.regCode == len(f.Code) && f.NumRegs <= f.regBound {
		return f.regBound
	}
	return f.regBoundOf()
}

// regBoundOf computes RegBound from the code.
func (f *Function) regBoundOf() int {
	n := f.NumRegs
	reg := func(r Reg) {
		n = max(n, int(r)+1)
	}
	op := func(o Operand) {
		if o.Kind == OperandReg {
			reg(o.Reg)
		}
	}
	for i := range f.Code {
		in := &f.Code[i]
		reg(in.Dst)
		reg(in.Addr)
		reg(in.Target)
		op(in.Src)
		op(in.A)
		op(in.B)
		for _, a := range in.Args {
			op(a)
		}
	}
	return n
}

// FrameLocalSize is the total size of the frame's slot area.
func (f *Function) FrameLocalSize() int64 {
	d := f.slotTable()
	return -d[len(d)-1]
}

// slotTable returns the slot table Link recorded, so the interpreter's
// hot path neither walks the slots nor formats their names. A function
// that was never linked, or whose slot count changed since, gets it
// computed afresh.
func (f *Function) slotTable() []int64 {
	if len(f.slots) == f.NumParams+len(f.Locals)+1 {
		return f.slots
	}
	return f.frameSlotTable()
}

// frameSlotTable computes the displacement of every frame slot, then of
// the slot area's bottom: each slot's offset into the area, less the
// area's size.
func (f *Function) frameSlotTable() []int64 {
	d := make([]int64, 0, f.NumParams+len(f.Locals)+1)
	var off int64
	for i := 0; i < f.NumParams; i++ {
		d = append(d, off)
		off += WordSize
	}
	for _, s := range f.Locals {
		d = append(d, off)
		off += align8(s.Size)
	}
	for i := range d {
		d[i] -= off
	}
	return append(d, -off)
}

// SlotIndex returns the index of the named slot (parameter spill slots are
// named p0..pN-1). It returns -1 if not found.
func (f *Function) SlotIndex(name string) int {
	for i, s := range f.FrameSlots() {
		if s.Name == name {
			return i
		}
	}
	return -1
}

func align8(n int64) int64 { return (n + 7) &^ 7 }

// Global is a program global variable.
type Global struct {
	Name string
	Size int64
	Init []byte // may be shorter than Size; remainder is zero

	Addr uint64 // assigned by Program.Link
}

// Program is a complete linked or linkable guest program.
type Program struct {
	Funcs   []*Function
	Globals []*Global

	// Entry is the name of the entry function; defaults to "main".
	Entry string

	funcByName   map[string]*Function
	globalByName map[string]*Global
	linked       bool
}

// NewProgram returns an empty program with entry point "main".
func NewProgram() *Program {
	return &Program{
		Entry:        "main",
		funcByName:   map[string]*Function{},
		globalByName: map[string]*Global{},
	}
}

// AddFunc registers a function. It panics on duplicate names: program
// assembly is programmer-controlled, so a duplicate is a bug, not input.
func (p *Program) AddFunc(f *Function) {
	if _, dup := p.funcByName[f.Name]; dup {
		panic("ir: duplicate function " + f.Name)
	}
	p.Funcs = append(p.Funcs, f)
	p.funcByName[f.Name] = f
	p.linked = false
}

// AddGlobal registers a global variable, panicking on duplicates.
func (p *Program) AddGlobal(g *Global) {
	if _, dup := p.globalByName[g.Name]; dup {
		panic("ir: duplicate global " + g.Name)
	}
	if g.Size < int64(len(g.Init)) {
		g.Size = int64(len(g.Init))
	}
	p.Globals = append(p.Globals, g)
	p.globalByName[g.Name] = g
	p.linked = false
}

// Func returns the named function, or nil.
func (p *Program) Func(name string) *Function { return p.funcByName[name] }

// Global returns the named global, or nil.
func (p *Program) GlobalByName(name string) *Global { return p.globalByName[name] }

// Address-space layout constants shared by the linker, the VM, and the
// monitor. These mirror a conventional (pre-ASLR) x86-64 layout.
const (
	CodeBase   uint64 = 0x0000_0000_0040_0000
	DataBase   uint64 = 0x0000_0000_0060_0000
	HeapBase   uint64 = 0x0000_0000_1000_0000
	StackTop   uint64 = 0x0000_7fff_ffff_0000
	StackSize  uint64 = 1 << 20
	ShadowBase uint64 = 0x0000_5500_0000_0000 // %gs-relative shadow region
	ShadowSize uint64 = 1 << 22
)

// Link assigns code addresses to every function, data addresses to every
// global, records each function's frame layout, and resolves branch
// labels and the Call, FuncAddr and GlobalAddr symbols. It is idempotent
// and must run before execution or analysis that needs addresses. An
// undefined symbol is not a link error: it resolves to nil, and executing
// the instruction fails.
func (p *Program) Link() error {
	next := CodeBase
	for _, f := range p.Funcs {
		f.Base = next
		sz := uint64(len(f.Code)) * InstrSize
		next += (sz + 0xf) &^ 0xf
		next += 16 // guard gap so gadget addresses never straddle functions
		f.slots = f.frameSlotTable()
		f.regBound, f.regCode = f.regBoundOf(), len(f.Code)
		if err := resolveLabels(f); err != nil {
			return err
		}
		p.resolveSymbols(f)
	}
	daddr := DataBase
	for _, g := range p.Globals {
		g.Addr = daddr
		daddr += (uint64(g.Size) + 0xf) &^ 0xf
	}
	p.linked = true
	return nil
}

// Linked reports whether Link has run since the last mutation.
func (p *Program) Linked() bool { return p.linked }

func resolveLabels(f *Function) error {
	for i := range f.Code {
		in := &f.Code[i]
		if in.Kind != Jump && in.Kind != BranchNZ {
			continue
		}
		if in.Label == "" { // already resolved numerically
			continue
		}
		idx, ok := f.labels[in.Label]
		if !ok {
			return fmt.Errorf("ir: %s: undefined label %q", f.Name, in.Label)
		}
		in.ToIndex = idx
	}
	return nil
}

func (p *Program) resolveSymbols(f *Function) {
	for i := range f.Code {
		in := &f.Code[i]
		switch in.Kind {
		case Call, FuncAddr:
			in.Callee = p.funcByName[in.Sym]
		case GlobalAddr:
			in.Global = p.globalByName[in.Sym]
		}
	}
}

// FuncAt returns the function containing code address a and the instruction
// index within it, or (nil, 0) if a is not a code address. On a linked
// program it binary-searches Funcs, which Link lays out at ascending,
// disjoint addresses; an unlinked program has no such order and is scanned.
func (p *Program) FuncAt(a uint64) (*Function, int) {
	if !p.linked {
		for _, f := range p.Funcs {
			if idx, ok := f.instrIndex(a); ok {
				return f, idx
			}
		}
		return nil, 0
	}
	// Find the last function whose Base is at or below a.
	lo, hi := 0, len(p.Funcs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.Funcs[mid].Base <= a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil, 0
	}
	f := p.Funcs[lo-1]
	if idx, ok := f.instrIndex(a); ok {
		return f, idx
	}
	return nil, 0
}

// instrIndex returns the index of the instruction at code address a, and
// whether a is an instruction boundary inside f.
func (f *Function) instrIndex(a uint64) (int, bool) {
	end := f.Base + uint64(len(f.Code))*InstrSize
	if a < f.Base || a >= end || (a-f.Base)%InstrSize != 0 {
		return 0, false
	}
	return int((a - f.Base) / InstrSize), true
}

// SyscallNumber returns the syscall number of a wrapper function: the
// constant first argument of its single Syscall instruction. ok is false if
// f is not a syscall wrapper with a constant number.
func SyscallNumber(f *Function) (nr int64, ok bool) {
	for i := range f.Code {
		in := &f.Code[i]
		if in.Kind != Syscall {
			continue
		}
		if len(in.Args) == 0 || in.Args[0].Kind != OperandImm {
			return 0, false
		}
		return in.Args[0].Imm, true
	}
	return 0, false
}

// IsSyscallWrapper reports whether f contains a Syscall instruction.
func IsSyscallWrapper(f *Function) bool {
	for i := range f.Code {
		if f.Code[i].Kind == Syscall {
			return true
		}
	}
	return false
}
