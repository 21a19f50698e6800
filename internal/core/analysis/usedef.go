package analysis

import (
	"bastion/internal/ir"
)

// baseKind is the root of an address expression.
type baseKind uint8

const (
	baseLocal baseKind = iota
	baseGlobal
)

// addrExpr is a statically understood address computation: a local slot or
// global, an optional single level of pointer indirection (for patterns
// like gshm->size, where the pointer itself lives at a static location),
// and a final field displacement. It is comparable, so it doubles as the
// field-sensitive variable identity (varKey).
type addrExpr struct {
	ok       bool
	deref    bool
	rootKind baseKind
	fn       string // owning function for local roots
	slot     int    // local root slot
	global   string // global root name
	rootOff  int64  // displacement of the pointer field (deref only)
	off      int64  // final field displacement
}

// varKey is the canonical identity of a sensitive variable.
type varKey = addrExpr

// isParamSlot reports whether the expression is exactly the spill slot of
// parameter n of function f.
func (a addrExpr) isParamSlot(f *ir.Function) (int, bool) {
	if !a.ok || a.deref || a.rootKind != baseLocal || a.fn != f.Name {
		return 0, false
	}
	if a.slot < f.NumParams && a.off == 0 {
		return a.slot, true
	}
	return 0, false
}

// defOf finds the nearest instruction before idx that defines reg, walking
// the instruction list backwards. This nearest-textual-definition rule is
// exact for the SSA-like code the builder emits (each expression gets a
// fresh register) and a sound-enough approximation elsewhere.
func defOf(f *ir.Function, idx int, reg ir.Reg) (int, *ir.Instr) {
	for i := idx - 1; i >= 0; i-- {
		in := &f.Code[i]
		switch in.Kind {
		case ir.Const, ir.Mov, ir.Bin, ir.Load, ir.LocalAddr, ir.GlobalAddr,
			ir.FuncAddr, ir.Call, ir.CallInd, ir.Syscall:
			if in.Dst == reg {
				return i, in
			}
		}
	}
	return -1, nil
}

// traceAddr resolves the address held in reg before instruction idx.
func (p *pass) traceAddr(f *ir.Function, idx int, reg ir.Reg, depth int) addrExpr {
	if depth > 16 {
		return addrExpr{}
	}
	i, def := defOf(f, idx, reg)
	if def == nil {
		return addrExpr{}
	}
	switch def.Kind {
	case ir.LocalAddr:
		return addrExpr{ok: true, rootKind: baseLocal, fn: f.Name, slot: def.Slot, off: def.Off}
	case ir.GlobalAddr:
		return addrExpr{ok: true, rootKind: baseGlobal, global: def.Sym, off: def.Off}
	case ir.Mov:
		if def.Src.Kind == ir.OperandReg {
			return p.traceAddr(f, i, def.Src.Reg, depth+1)
		}
	case ir.Bin:
		if def.Op != ir.OpAdd && def.Op != ir.OpSub {
			return addrExpr{}
		}
		var base ir.Operand
		var disp int64
		switch {
		case def.A.Kind == ir.OperandReg && def.B.Kind == ir.OperandImm:
			base, disp = def.A, def.B.Imm
		case def.A.Kind == ir.OperandImm && def.B.Kind == ir.OperandReg && def.Op == ir.OpAdd:
			base, disp = def.B, def.A.Imm
		default:
			return addrExpr{}
		}
		if def.Op == ir.OpSub {
			disp = -disp
		}
		e := p.traceAddr(f, i, base.Reg, depth+1)
		if !e.ok {
			return e
		}
		e.off += disp
		return e
	case ir.Load:
		// A pointer loaded from a statically known location: one level of
		// indirection is modeled (the gshm->size pattern of Figure 2).
		if def.Size != ir.WordSize {
			return addrExpr{}
		}
		inner := p.traceAddr(f, i, def.Addr, depth+1)
		if !inner.ok || inner.deref {
			return addrExpr{}
		}
		return addrExpr{
			ok: true, deref: true,
			rootKind: inner.rootKind, fn: inner.fn, slot: inner.slot,
			global: inner.global, rootOff: inner.off + def.Off,
		}
	}
	return addrExpr{}
}

// srcKind classifies a traced argument value.
type srcKind uint8

const (
	srcUnknown srcKind = iota
	srcConst
	srcMem
	srcParam
	// srcAddrOf: the value is the address of a statically known object
	// (&buf) — a pointer argument whose pointee may be verified as an
	// extended argument.
	srcAddrOf
)

// valueSrc is the origin of an argument value.
type valueSrc struct {
	kind  srcKind
	c     int64    // srcConst
	addr  addrExpr // srcMem
	size  int64    // srcMem load width
	param int      // srcParam: parameter index of the containing function
}

// traceValue resolves the origin of the value in reg before instruction
// idx: a constant, a load from a statically describable memory location, a
// function parameter, or unknown.
func (p *pass) traceValue(f *ir.Function, idx int, reg ir.Reg, depth int) valueSrc {
	if depth > 16 {
		return valueSrc{}
	}
	i, def := defOf(f, idx, reg)
	if def == nil {
		return valueSrc{}
	}
	switch def.Kind {
	case ir.Const:
		return valueSrc{kind: srcConst, c: def.Imm}
	case ir.Mov:
		if def.Src.Kind == ir.OperandImm {
			return valueSrc{kind: srcConst, c: def.Src.Imm}
		}
		return p.traceValue(f, i, def.Src.Reg, depth+1)
	case ir.LocalAddr:
		ae := addrExpr{ok: true, rootKind: baseLocal, fn: f.Name, slot: def.Slot, off: def.Off}
		return valueSrc{kind: srcAddrOf, addr: ae, size: p.objSize(ae)}
	case ir.GlobalAddr:
		ae := addrExpr{ok: true, rootKind: baseGlobal, global: def.Sym, off: def.Off}
		return valueSrc{kind: srcAddrOf, addr: ae, size: p.objSize(ae)}
	case ir.Load:
		ae := p.traceAddr(f, i, def.Addr, depth+1)
		if !ae.ok {
			return valueSrc{}
		}
		ae.off += def.Off
		if n, isParam := ae.isParamSlot(f); isParam {
			return valueSrc{kind: srcParam, param: n, addr: ae, size: def.Size}
		}
		return valueSrc{kind: srcMem, addr: ae, size: def.Size}
	case ir.Bin:
		// Constant folding over traced constants.
		av := p.operandConst(f, i, def.A, depth+1)
		bv := p.operandConst(f, i, def.B, depth+1)
		if av != nil && bv != nil {
			if folded, ok := ir.FoldConst(def.Op, *av, *bv); ok {
				return valueSrc{kind: srcConst, c: folded}
			}
		}
		return valueSrc{}
	}
	return valueSrc{}
}

// objSize returns the byte size of the base object an expression refers
// to, net of the field offset (0 when unknown, e.g. through a deref).
func (p *pass) objSize(e addrExpr) int64 {
	if !e.ok || e.deref {
		return 0
	}
	var total int64
	if e.rootKind == baseLocal {
		f := p.prog.Func(e.fn)
		if f == nil {
			return 0
		}
		slots := f.FrameSlots()
		if e.slot < 0 || e.slot >= len(slots) {
			return 0
		}
		total = slots[e.slot].Size
	} else {
		g := p.prog.GlobalByName(e.global)
		if g == nil {
			return 0
		}
		total = g.Size
	}
	if n := total - e.off; n > 0 {
		return n
	}
	return 0
}

// operandConst resolves an operand to a constant if statically possible.
func (p *pass) operandConst(f *ir.Function, idx int, o ir.Operand, depth int) *int64 {
	if o.Kind == ir.OperandImm {
		v := o.Imm
		return &v
	}
	src := p.traceValue(f, idx, o.Reg, depth)
	if src.kind == srcConst {
		return &src.c
	}
	return nil
}
