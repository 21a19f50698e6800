package ir

import "fmt"

// Builder assembles a Function instruction by instruction. It allocates
// virtual registers, tracks labels, and offers convenience emitters so guest
// applications read close to the C they imitate.
type Builder struct {
	f       *Function
	nextReg Reg
	slots   map[string]int
}

// NewBuilder starts a function with the given name and parameter count.
// The type signature defaults to "i64(" + n×"i64" + ")" and can be
// overridden with SetTypeSig for CFI-baseline experiments.
func NewBuilder(name string, numParams int) *Builder {
	sig := "i64("
	for i := 0; i < numParams; i++ {
		if i > 0 {
			sig += ","
		}
		sig += "i64"
	}
	sig += ")"
	b := &Builder{
		f: &Function{
			Name:      name,
			NumParams: numParams,
			TypeSig:   sig,
			labels:    map[string]int{},
		},
		slots: map[string]int{},
	}
	for i := 0; i < numParams; i++ {
		b.slots[fmt.Sprintf("p%d", i)] = i
	}
	return b
}

// SetTypeSig overrides the function's signature string.
func (b *Builder) SetTypeSig(sig string) *Builder { b.f.TypeSig = sig; return b }

// Reg allocates a fresh virtual register.
func (b *Builder) Reg() Reg {
	r := b.nextReg
	b.nextReg++
	return r
}

// Local declares a named local slot of the given size and returns its slot
// index (usable with LocalAddr / Lea).
func (b *Builder) Local(name string, size int64) int {
	if _, dup := b.slots[name]; dup {
		panic("ir: duplicate local " + name + " in " + b.f.Name)
	}
	b.f.Locals = append(b.f.Locals, Slot{Name: name, Size: size})
	idx := b.f.NumParams + len(b.f.Locals) - 1
	b.slots[name] = idx
	return idx
}

// SlotIndex returns the slot index of a declared local or parameter (p0..).
func (b *Builder) SlotIndex(name string) int {
	idx, ok := b.slots[name]
	if !ok {
		panic("ir: unknown slot " + name + " in " + b.f.Name)
	}
	return idx
}

// Label defines a label at the current instruction position.
func (b *Builder) Label(name string) {
	if _, dup := b.f.labels[name]; dup {
		panic("ir: duplicate label " + name + " in " + b.f.Name)
	}
	b.f.labels[name] = len(b.f.Code)
}

func (b *Builder) emit(in Instr) int {
	b.f.Code = append(b.f.Code, in)
	return len(b.f.Code) - 1
}

// Emit appends a raw instruction and returns its index.
func (b *Builder) Emit(in Instr) int { return b.emit(in) }

// Const sets dst to an immediate and returns dst for chaining convenience.
func (b *Builder) Const(v int64) Reg {
	dst := b.Reg()
	b.emit(Instr{Kind: Const, Dst: dst, Imm: v})
	return dst
}

// ConstInto emits dst = v into an existing register.
func (b *Builder) ConstInto(dst Reg, v int64) { b.emit(Instr{Kind: Const, Dst: dst, Imm: v}) }

// Mov emits dst = src.
func (b *Builder) Mov(dst Reg, src Operand) { b.emit(Instr{Kind: Mov, Dst: dst, Src: src}) }

// Bin emits dst = op(a, b) into a fresh register.
func (b *Builder) Bin(op Op, a, bb Operand) Reg {
	dst := b.Reg()
	b.emit(Instr{Kind: Bin, Dst: dst, Op: op, A: a, B: bb})
	return dst
}

// BinInto emits dst = op(a, b) into an existing register.
func (b *Builder) BinInto(dst Reg, op Op, a, bb Operand) {
	b.emit(Instr{Kind: Bin, Dst: dst, Op: op, A: a, B: bb})
}

// Lea emits dst = &slot + off for a named local/parameter.
func (b *Builder) Lea(name string, off int64) Reg {
	dst := b.Reg()
	b.emit(Instr{Kind: LocalAddr, Dst: dst, Slot: b.SlotIndex(name), Off: off})
	return dst
}

// GlobalLea emits dst = &global + off.
func (b *Builder) GlobalLea(name string, off int64) Reg {
	dst := b.Reg()
	b.emit(Instr{Kind: GlobalAddr, Dst: dst, Sym: name, Off: off})
	return dst
}

// FuncAddr emits dst = &func (address-taken function).
func (b *Builder) FuncAddr(name string) Reg {
	dst := b.Reg()
	b.emit(Instr{Kind: FuncAddr, Dst: dst, Sym: name})
	return dst
}

// Load emits dst = mem[addr+off] of the given width into a fresh register.
func (b *Builder) Load(addr Reg, off, size int64) Reg {
	dst := b.Reg()
	b.emit(Instr{Kind: Load, Dst: dst, Addr: addr, Off: off, Size: size})
	return dst
}

// Store emits mem[addr+off] = src of the given width. It returns the
// instruction index so instrumentation can anchor to it.
func (b *Builder) Store(addr Reg, off int64, src Operand, size int64) int {
	return b.emit(Instr{Kind: Store, Addr: addr, Off: off, Src: src, Size: size})
}

// LoadLocal is shorthand for Lea+Load of a whole word-sized slot.
func (b *Builder) LoadLocal(name string) Reg {
	return b.Load(b.Lea(name, 0), 0, WordSize)
}

// StoreLocal is shorthand for Lea+Store of a word-sized slot.
func (b *Builder) StoreLocal(name string, src Operand) int {
	return b.Store(b.Lea(name, 0), 0, src, WordSize)
}

// Call emits a direct call and returns the result register.
func (b *Builder) Call(name string, args ...Operand) Reg {
	dst := b.Reg()
	b.emit(Instr{Kind: Call, Dst: dst, Sym: name, Args: args})
	return dst
}

// CallInd emits an indirect call through target and returns the result
// register. sig is the callsite's static signature for the CFI baseline.
func (b *Builder) CallInd(target Reg, sig string, args ...Operand) Reg {
	dst := b.Reg()
	b.emit(Instr{Kind: CallInd, Dst: dst, Target: target, Args: args, TypeSig: sig})
	return dst
}

// Syscall emits a raw syscall instruction (used only by wrapper builders).
func (b *Builder) Syscall(nr int64, args ...Operand) Reg {
	dst := b.Reg()
	all := append([]Operand{Imm(nr)}, args...)
	b.emit(Instr{Kind: Syscall, Dst: dst, Args: all})
	return dst
}

// Jump emits an unconditional branch to label.
func (b *Builder) Jump(label string) { b.emit(Instr{Kind: Jump, Label: label}) }

// BranchNZ emits a conditional branch to label when cond != 0.
func (b *Builder) BranchNZ(cond Operand, label string) {
	b.emit(Instr{Kind: BranchNZ, Src: cond, Label: label})
}

// Ret emits a return.
func (b *Builder) Ret(v Operand) { b.emit(Instr{Kind: Ret, Src: v}) }

// Comment attaches a comment to the most recently emitted instruction.
func (b *Builder) Comment(c string) {
	if len(b.f.Code) > 0 {
		b.f.Code[len(b.f.Code)-1].Comment = c
	}
}

// NumInstrs returns the number of instructions emitted so far.
func (b *Builder) NumInstrs() int { return len(b.f.Code) }

// Build finalizes the function. The builder must not be reused.
func (b *Builder) Build() *Function {
	b.f.NumRegs = int(b.nextReg)
	return b.f
}
