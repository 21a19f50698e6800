package analysis

import (
	"fmt"

	"bastion/internal/core/metadata"
	"bastion/internal/ir"
)

// analyzeArguments runs the argument-integrity analysis (§6.3): it finds
// every sensitive system call callsite, classifies each argument, plans
// bind instrumentation at the callsite, and recursively traces memory-
// backed and parameter-passed values — planning ctx_write_mem
// instrumentation after each store in the sensitive variables' use-def
// chains and bind instrumentation at intermediate callsites.
func (p *pass) analyzeArguments() {
	for _, f := range p.prog.Funcs {
		for i := range f.Code {
			in := &f.Code[i]
			if in.Kind != ir.Call {
				continue
			}
			nr, sens := p.isSensitiveWrapper(in.Sym)
			if !sens {
				continue
			}
			p.traceCallsite(f, i, nr, true, nil, 0)
		}
	}
}

// traceCallsite analyzes the arguments of the call instruction at index i
// of f. When onlyPos is non-nil, only those 1-based argument positions are
// traced (intermediate callsites propagate specific sensitive parameters);
// for syscall callsites every argument is traced.
func (p *pass) traceCallsite(f *ir.Function, i int, nr uint32, isSyscall bool, onlyPos map[int]bool, depth int) {
	if depth > MaxUseDefDepth {
		return
	}
	in := &f.Code[i]
	key := siteKey{fn: f.Name, idx: i}
	draft := p.argSites[key]
	if draft == nil {
		draft = &argSiteDraft{target: in.Sym, syscallNr: nr, isSyscall: isSyscall}
		p.argSites[key] = draft
	}
	for ai, o := range in.Args {
		pos := ai + 1
		if onlyPos != nil && !onlyPos[pos] {
			continue
		}
		if draft.hasPos(pos) {
			continue
		}
		if o.Kind == ir.OperandImm {
			p.bindConst(f, i, pos, o.Imm, draft)
			continue
		}
		src := p.traceValue(f, i, o.Reg, 0)
		switch src.kind {
		case srcConst:
			p.bindConst(f, i, pos, src.c, draft)
		case srcParam:
			p.bindMem(f, i, pos, src.addr, src.size, false, draft)
			p.traceParam(f, src.param, depth)
		case srcMem:
			p.bindMem(f, i, pos, src.addr, src.size, false, draft)
			p.markVarSensitive(src.addr, src.size, depth)
		case srcAddrOf:
			// Pointer to a known object (&buf): bind the address itself and
			// track writes into the object so extended-argument rules can
			// verify the pointee.
			p.bindMem(f, i, pos, src.addr, src.size, true, draft)
			p.markVarSensitive(src.addr, src.size, depth)
		default:
			p.stats.UntracedArgs++
			p.recordUntraced(f.Name, i, pos, draft.target, metadata.UntracedValueOrigin)
		}
	}
}

func (d *argSiteDraft) hasPos(pos int) bool {
	for _, a := range d.args {
		if a.Pos == pos {
			return true
		}
	}
	return false
}

// traceParam handles a sensitive function parameter (the b2←flags pattern
// of Figure 2): shadow the spill slot at function entry, track writes to
// it, and recurse into every caller to bind and trace the passed value.
func (p *pass) traceParam(f *ir.Function, param int, depth int) {
	pk := paramKey{fn: f.Name, param: param}
	if p.sensParams[pk] {
		return
	}
	p.sensParams[pk] = true

	// ctx_write_mem(&param) at function entry, right after the VM spills
	// incoming arguments.
	p.planEntryWrite(f, param)

	// Stores to the spill slot within f keep the shadow fresh.
	slotExpr := addrExpr{ok: true, rootKind: baseLocal, fn: f.Name, slot: param}
	p.markVarSensitive(slotExpr, ir.WordSize, depth)

	if depth+1 > MaxUseDefDepth {
		// Truncated inter-procedural trace: the callers' passed values stay
		// unverified. Counted in the stats so the depth budget's cost is
		// visible, but not recorded as metadata.Untraced — the parameter's
		// spill slot is still shadowed above, so there is no per-callsite
		// record for the audit to point at.
		p.stats.UntracedArgs++
		return
	}
	// Inter-procedural step: every caller binds and traces the argument it
	// passes for this parameter.
	pos := param + 1
	for _, g := range p.prog.Funcs {
		for i := range g.Code {
			in := &g.Code[i]
			if in.Kind != ir.Call || in.Sym != f.Name {
				continue
			}
			p.traceCallsite(g, i, 0, false, map[int]bool{pos: true}, depth+1)
		}
	}
}

// markVarSensitive adds the variable to the sensitive set and plans
// ctx_write_mem instrumentation after every store that can write it —
// matched by address base, so loop-indexed writes into a sensitive buffer
// are covered (over-approximation is explicitly acceptable, §6.3.3) — and
// after stores through callee pointer parameters when the variable's
// address escapes into a call (the memcpy-into-sensitive-buffer pattern).
func (p *pass) markVarSensitive(expr addrExpr, size int64, depth int) {
	canon := expr
	canon.off = 0 // sensitivity is tracked per base object; fields share it
	if p.sensVars[canon] {
		return
	}
	p.sensVars[canon] = true
	if depth > MaxUseDefDepth {
		return
	}

	// Alias propagation: a variable reached through a pointer parameter
	// (ctx->path in Listing 1) is the same object the callers pass. Trace
	// the pointer argument at every callsite and mark the aliased object
	// sensitive there too, so stores through either name are shadowed.
	if canon.deref && canon.rootKind == baseLocal {
		if f := p.prog.Func(canon.fn); f != nil && canon.slot < f.NumParams && canon.rootOff == 0 {
			for _, g := range p.prog.Funcs {
				for i := range g.Code {
					in := &g.Code[i]
					if in.Kind != ir.Call || in.Sym != canon.fn || canon.slot >= len(in.Args) {
						continue
					}
					o := in.Args[canon.slot]
					if o.Kind != ir.OperandReg {
						continue
					}
					src := p.traceValue(g, i, o.Reg, 0)
					switch src.kind {
					case srcAddrOf:
						// Pointer is &X: the deref target is X itself.
						p.markVarSensitive(src.addr, size, depth+1)
					case srcMem:
						// Pointer loaded from a static location: the deref
						// target is one indirection through that location.
						if !src.addr.deref {
							alias := addrExpr{
								ok: true, deref: true,
								rootKind: src.addr.rootKind, fn: src.addr.fn,
								slot: src.addr.slot, global: src.addr.global,
								rootOff: src.addr.off,
							}
							p.markVarSensitive(alias, size, depth+1)
						}
					case srcParam:
						// Pointer passed through another level: recurse via
						// the caller's own parameter.
						alias := addrExpr{
							ok: true, deref: true, rootKind: baseLocal,
							fn: g.Name, slot: src.param,
						}
						p.markVarSensitive(alias, size, depth+1)
					}
				}
			}
		}
	}

	local := canon.rootKind == baseLocal && !canon.deref
	for _, g := range p.prog.Funcs {
		if local && g.Name != canon.fn {
			continue
		}
		for i := range g.Code {
			in := &g.Code[i]
			switch in.Kind {
			case ir.Store:
				base := p.addrBaseOf(g, i, in.Addr, 0)
				if !sameBase(base, canon) {
					continue
				}
				p.planStoreShadow(g, i, canon)
				// Data-dependent variables join the sensitive set (§6.3.3
				// step 2). A stored address (&obj) makes the pointed-to
				// object sensitive too: it is the pointee an extended
				// argument will be verified against.
				if in.Src.Kind == ir.OperandReg {
					sv := p.traceValue(g, i, in.Src.Reg, 0)
					switch sv.kind {
					case srcMem, srcAddrOf:
						p.markVarSensitive(sv.addr, sv.size, depth+1)
					case srcParam:
						p.traceParam(g, sv.param, depth+1)
					}
				}
			case ir.Call:
				// Address escape: &var passed to a callee; instrument the
				// callee's stores through that pointer parameter.
				callee := p.prog.Func(in.Sym)
				if callee == nil {
					continue
				}
				for ai, o := range in.Args {
					if o.Kind != ir.OperandReg {
						continue
					}
					base := p.addrBaseOf(g, i, o.Reg, 0)
					if sameBase(base, canon) {
						p.planDerefParamWrites(callee, ai)
					}
				}
			}
		}
	}
}

// planDerefParamWrites instruments, inside callee, every store whose
// address derives from pointer parameter param (one indirection level).
func (p *pass) planDerefParamWrites(callee *ir.Function, param int) {
	pk := paramKey{fn: callee.Name, param: param}
	if p.derefWriteFns[pk] {
		return
	}
	p.derefWriteFns[pk] = true
	want := addrExpr{ok: true, deref: true, rootKind: baseLocal, fn: callee.Name, slot: param}
	for i := range callee.Code {
		in := &callee.Code[i]
		if in.Kind != ir.Store {
			continue
		}
		base := p.addrBaseOf(callee, i, in.Addr, 0)
		if sameBase(base, want) {
			p.planStoreShadow(callee, i, want)
		}
	}
}

// addrBaseOf resolves the base object an address register derives from,
// tolerating variable offsets: a Bin over two registers resolves through
// whichever side yields a base. The returned expr has off forced to 0.
func (p *pass) addrBaseOf(f *ir.Function, idx int, reg ir.Reg, depth int) addrExpr {
	if depth > 16 {
		return addrExpr{}
	}
	i, def := defOf(f, idx, reg)
	if def == nil {
		return addrExpr{}
	}
	switch def.Kind {
	case ir.LocalAddr:
		return addrExpr{ok: true, rootKind: baseLocal, fn: f.Name, slot: def.Slot}
	case ir.GlobalAddr:
		return addrExpr{ok: true, rootKind: baseGlobal, global: def.Sym}
	case ir.Mov:
		if def.Src.Kind == ir.OperandReg {
			return p.addrBaseOf(f, i, def.Src.Reg, depth+1)
		}
	case ir.Bin:
		if def.A.Kind == ir.OperandReg {
			if e := p.addrBaseOf(f, i, def.A.Reg, depth+1); e.ok {
				return e
			}
		}
		if def.B.Kind == ir.OperandReg {
			if e := p.addrBaseOf(f, i, def.B.Reg, depth+1); e.ok {
				return e
			}
		}
	case ir.Load:
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

// sameBase reports whether two expressions refer to the same base object
// (ignoring field offsets).
func sameBase(a, b addrExpr) bool {
	if !a.ok || !b.ok || a.deref != b.deref || a.rootKind != b.rootKind {
		return false
	}
	if a.deref && a.rootOff != b.rootOff {
		return false
	}
	if a.rootKind == baseLocal {
		return a.fn == b.fn && a.slot == b.slot
	}
	return a.global == b.global
}

// --- instrumentation planning primitives ---

func (p *pass) bindConst(f *ir.Function, site, pos int, c int64, draft *argSiteDraft) {
	draft.args = append(draft.args, argSpec(pos, true, c, 0))
	key := fmt.Sprintf("bc:%s:%d:%d", f.Name, site, pos)
	if !p.planKey(key) {
		return
	}
	p.stats.CtxBindConst++
	p.addInsertion(f, insertion{idx: site, seq: []ir.Instr{{
		Kind: ir.Intrinsic, IK: ir.CtxBindConst, Pos: pos, Imm: c, BindSite: site,
	}}})
}

func (p *pass) bindMem(f *ir.Function, site, pos int, expr addrExpr, size int64, deref bool, draft *argSiteDraft) {
	if size == 0 {
		size = ir.WordSize
	}
	seq, reg, ok := p.emitAddr(f, expr)
	if !ok {
		p.stats.UntracedArgs++
		p.recordUntraced(f.Name, site, pos, draft.target, metadata.UntracedAddress)
		return
	}
	spec := argSpec(pos, false, 0, size)
	spec.Deref = deref
	draft.args = append(draft.args, spec)
	key := fmt.Sprintf("bm:%s:%d:%d", f.Name, site, pos)
	if !p.planKey(key) {
		return
	}
	p.stats.CtxBindMem++
	seq = append(seq, ir.Instr{
		Kind: ir.Intrinsic, IK: ir.CtxBindMem, Pos: pos, Addr: reg, BindSite: site,
	})
	p.addInsertion(f, insertion{idx: site, seq: seq})
}

// planStoreShadow inserts ctx_write_mem right after the store at index i.
// For small statically addressable objects (scalars) the whole object is
// re-shadowed from its base, so the shadow entry's address matches the
// address later bound at callsites; larger or pointer-reached objects are
// shadowed at the store's exact address and width, producing the
// fine-grained entries extended-argument verification walks.
func (p *pass) planStoreShadow(f *ir.Function, i int, obj addrExpr) {
	key := fmt.Sprintf("ws:%s:%d", f.Name, i)
	if !p.planKey(key) {
		return
	}
	in := &f.Code[i]
	var seq []ir.Instr
	base := obj
	base.off = 0
	if sz := p.objSize(base); sz > 0 && sz <= ir.WordSize && !base.deref {
		if addrSeq, reg, ok := p.emitAddr(f, base); ok {
			p.stats.CtxWriteMem++
			seq = append(addrSeq, ir.Instr{Kind: ir.Intrinsic, IK: ir.CtxWriteMem, Addr: reg, Size: sz})
			p.addInsertion(f, insertion{idx: i, after: true, seq: seq})
			return
		}
	}
	addr := in.Addr
	if in.Off != 0 {
		r := p.allocReg(f)
		seq = append(seq, ir.Instr{
			Kind: ir.Bin, Dst: r, Op: ir.OpAdd, A: ir.R(in.Addr), B: ir.Imm(in.Off),
		})
		addr = r
	}
	p.stats.CtxWriteMem++
	seq = append(seq, ir.Instr{Kind: ir.Intrinsic, IK: ir.CtxWriteMem, Addr: addr, Size: in.Size})
	p.addInsertion(f, insertion{idx: i, after: true, seq: seq})
}

// planEntryWrite shadows a parameter spill slot at function entry.
func (p *pass) planEntryWrite(f *ir.Function, param int) {
	key := fmt.Sprintf("we:%s:%d", f.Name, param)
	if !p.planKey(key) {
		return
	}
	r := p.allocReg(f)
	p.stats.CtxWriteMem++
	p.addInsertion(f, insertion{idx: 0, seq: []ir.Instr{
		{Kind: ir.LocalAddr, Dst: r, Slot: param},
		{Kind: ir.Intrinsic, IK: ir.CtxWriteMem, Addr: r, Size: ir.WordSize},
	}})
}

// emitAddr materializes an address expression into instructions, returning
// the register holding the final address.
func (p *pass) emitAddr(f *ir.Function, expr addrExpr) ([]ir.Instr, ir.Reg, bool) {
	if !expr.ok {
		return nil, 0, false
	}
	if expr.rootKind == baseLocal && expr.fn != f.Name {
		// A foreign local cannot be materialized here.
		return nil, 0, false
	}
	var seq []ir.Instr
	r := p.allocReg(f)
	if expr.rootKind == baseLocal {
		off := expr.off
		if expr.deref {
			off = expr.rootOff
		}
		seq = append(seq, ir.Instr{Kind: ir.LocalAddr, Dst: r, Slot: expr.slot, Off: off})
	} else {
		off := expr.off
		if expr.deref {
			off = expr.rootOff
		}
		seq = append(seq, ir.Instr{Kind: ir.GlobalAddr, Dst: r, Sym: expr.global, Off: off})
	}
	if expr.deref {
		r2 := p.allocReg(f)
		seq = append(seq, ir.Instr{Kind: ir.Load, Dst: r2, Addr: r, Size: ir.WordSize})
		r = r2
		if expr.off != 0 {
			r3 := p.allocReg(f)
			seq = append(seq, ir.Instr{Kind: ir.Bin, Dst: r3, Op: ir.OpAdd, A: ir.R(r2), B: ir.Imm(expr.off)})
			r = r3
		}
	}
	return seq, r, true
}

func argSpec(pos int, isConst bool, c int64, size int64) metadata.ArgSpec {
	if isConst {
		return metadata.ArgSpec{Pos: pos, Kind: metadata.ArgConst, Const: c}
	}
	return metadata.ArgSpec{Pos: pos, Kind: metadata.ArgMem, Size: size}
}
