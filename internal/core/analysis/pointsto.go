package analysis

import "bastion/internal/ir"

// This file implements the points-to refinement of the indirect-call
// policies: a flow-insensitive, field-aware, Andersen-style propagation of
// function-address constants through stores, loads, locals, globals, and
// direct-call parameter passing. Where the coarse §6 analysis admits every
// address-taken function of matching type at every indirect callsite, the
// refined analysis computes, per callsite, the set of functions whose
// address can actually flow into the callsite's target register.
//
// The abstract memory is the set of statically resolvable cells: (local
// slot | global, constant offset) — exactly the address language of
// traceAddr, without indirection. Function addresses flowing anywhere the
// cell language cannot describe (a computed index, a pointer loaded from
// memory, a call result) escape: the analysis falls back to the coarse
// address-taken set for any read tainted by the escape, so refinement is
// sound by construction — the refined set is always a subset of the coarse
// set (Structure intersects it with the frontier) and always a superset of
// the dynamically realizable targets.

// ptCell is one statically resolvable abstract memory cell.
type ptCell struct {
	rootKind baseKind
	fn       string // owning function for local roots
	slot     int
	global   string
	off      int64
}

// pointsTo carries the fixpoint state.
type pointsTo struct {
	p *pass

	// addressTaken is the escape soup: every function whose address is
	// materialized anywhere (ir.FuncAddr).
	addressTaken map[string]bool
	sigOf        map[string]string

	// cells maps each tracked cell to the function constants stored there.
	cells map[ptCell]map[string]bool
	// unknown marks cells that also received a value the trace could not
	// resolve (reads of such cells are not exact).
	unknown map[ptCell]bool
	// poisoned is set when a function address — or an unresolvable word —
	// is stored through an address outside the cell language: all tracked
	// knowledge is then untrusted and every site falls back to coarse.
	poisoned bool

	changed bool
}

// runPointsTo runs the propagation to its fixpoint over the linked,
// instrumented program; refine then answers per indirect callsite.
func (p *pass) runPointsTo() *pointsTo {
	pt := &pointsTo{
		p:            p,
		addressTaken: map[string]bool{},
		sigOf:        map[string]string{},
		cells:        map[ptCell]map[string]bool{},
		unknown:      map[ptCell]bool{},
	}
	for _, f := range p.prog.Funcs {
		pt.sigOf[f.Name] = f.TypeSig
		for i := range f.Code {
			if f.Code[i].Kind == ir.FuncAddr {
				pt.addressTaken[f.Code[i].Sym] = true
			}
		}
	}

	// Monotone fixpoint: cell contents and the poison flag only grow, so
	// iteration terminates.
	for {
		pt.changed = false
		for _, f := range p.prog.Funcs {
			pt.transferFunc(f)
		}
		if !pt.changed {
			break
		}
	}
	return pt
}

// cellOf converts a resolved, non-indirected address expression to a cell.
func cellOf(e addrExpr) (ptCell, bool) {
	if !e.ok || e.deref {
		return ptCell{}, false
	}
	return ptCell{rootKind: e.rootKind, fn: e.fn, slot: e.slot, global: e.global, off: e.off}, true
}

// paramCell is the cell of callee's parameter spill slot n.
func paramCell(callee string, n int) ptCell {
	return ptCell{rootKind: baseLocal, fn: callee, slot: n}
}

func (pt *pointsTo) addTo(cell ptCell, funcs map[string]bool) {
	if len(funcs) == 0 {
		return
	}
	set := pt.cells[cell]
	if set == nil {
		set = map[string]bool{}
		pt.cells[cell] = set
	}
	for t := range funcs {
		if !set[t] {
			set[t] = true
			pt.changed = true
		}
	}
}

func (pt *pointsTo) markUnknown(cell ptCell) {
	if !pt.unknown[cell] {
		pt.unknown[cell] = true
		pt.changed = true
	}
}

func (pt *pointsTo) poison() {
	if !pt.poisoned {
		pt.poisoned = true
		pt.changed = true
	}
}

// transferFunc applies one pass of the transfer relation over f.
func (pt *pointsTo) transferFunc(f *ir.Function) {
	for i := range f.Code {
		in := &f.Code[i]
		switch in.Kind {
		case ir.Store:
			// Narrow stores cannot carry a code address (code lives at
			// ir.CodeBase and above, which needs at least 4 bytes).
			if in.Size < 4 {
				continue
			}
			vals, exact := pt.funcSetOperand(f, i, in.Src)
			ae := pt.p.traceAddr(f, i, in.Addr, 0)
			ae.off += in.Off
			if cell, ok := cellOf(ae); ok {
				pt.addTo(cell, vals)
				if !exact {
					pt.markUnknown(cell)
				}
				continue
			}
			// The store target is outside the cell language (pointer
			// indirection or a computed address): any function constant —
			// or any word we cannot prove is not one — escapes into
			// untracked memory.
			if !exact || len(vals) > 0 {
				pt.poison()
			}
		case ir.Call:
			callee := pt.p.prog.Func(in.Sym)
			if callee == nil {
				continue
			}
			pt.bindCallArgs(f, i, in.Args, callee)
		case ir.CallInd:
			// The concrete callee is unknown while its policy is still
			// being computed; bind arguments to every signature-compatible
			// address-taken candidate (a superset of any refined answer).
			for t := range pt.addressTaken {
				if in.TypeSig != "" && pt.sigOf[t] != in.TypeSig {
					continue
				}
				if callee := pt.p.prog.Func(t); callee != nil {
					pt.bindCallArgs(f, i, in.Args, callee)
				}
			}
		}
	}
}

// bindCallArgs propagates function constants from call arguments into the
// callee's parameter spill-slot cells.
func (pt *pointsTo) bindCallArgs(f *ir.Function, idx int, args []ir.Operand, callee *ir.Function) {
	for ai, o := range args {
		if ai >= callee.NumParams {
			break
		}
		vals, _ := pt.funcSetOperand(f, idx, o)
		// Parameter slots are never exact from the reader side (they hold
		// runtime inputs), so only the positive constants matter here.
		pt.addTo(paramCell(callee.Name, ai), vals)
	}
}

func (pt *pointsTo) funcSetOperand(f *ir.Function, idx int, o ir.Operand) (map[string]bool, bool) {
	if o.Kind == ir.OperandImm {
		// Builder-emitted immediates are data, never code addresses: the
		// only way a program materializes a function address is FuncAddr.
		return nil, true
	}
	return pt.funcSet(f, idx, o.Reg, 0)
}

// funcSet resolves the set of function addresses the value in reg may hold
// before instruction idx. exact=false means the value may additionally be
// anything that escaped (the consumer falls back to the coarse set).
func (pt *pointsTo) funcSet(f *ir.Function, idx int, reg ir.Reg, depth int) (map[string]bool, bool) {
	if depth > 16 {
		return nil, false
	}
	i, def := defOf(f, idx, reg)
	if def == nil {
		return nil, false
	}
	switch def.Kind {
	case ir.FuncAddr:
		return map[string]bool{def.Sym: true}, true
	case ir.Const:
		return nil, true
	case ir.LocalAddr, ir.GlobalAddr:
		// A data address is never a function address.
		return nil, true
	case ir.Mov:
		if def.Src.Kind == ir.OperandImm {
			return nil, true
		}
		return pt.funcSet(f, i, def.Src.Reg, depth+1)
	case ir.Bin:
		// Arithmetic over resolved constants is a constant; anything else
		// could in principle reconstruct an escaped address.
		if pt.p.operandConst(f, i, def.A, depth+1) != nil && pt.p.operandConst(f, i, def.B, depth+1) != nil {
			return nil, true
		}
		return nil, false
	case ir.Load:
		if def.Size < 4 {
			// Too narrow to carry a code address.
			return nil, true
		}
		ae := pt.p.traceAddr(f, i, def.Addr, depth+1)
		ae.off += def.Off
		cell, ok := cellOf(ae)
		if !ok {
			return nil, false
		}
		if n, isParam := ae.isParamSlot(f); isParam {
			// Parameter slots receive runtime values; the propagated
			// constants add precision but never exactness.
			return pt.cells[paramCell(f.Name, n)], false
		}
		return pt.cells[cell], !pt.unknown[cell] && !pt.poisoned
	}
	return nil, false
}

// refine is the points-to Refinement: the function addresses the target
// register of the indirect callsite f.Code[idx] may hold. It is exact
// unless the register may also hold an escaped value, in which case
// Structure falls back to the coarse address-taken set.
func (pt *pointsTo) refine(f *ir.Function, idx int) (map[string]bool, bool) {
	vals, exact := pt.funcSet(f, idx, f.Code[idx].Target, 0)
	return vals, exact && !pt.poisoned
}
