// Constant-argument recovery for the B-Side extractor: a sound
// reaching-definitions dataflow over registers and statically resolvable
// stack cells of the linked program.
//
// The compiler pass traces arguments backward along the *textual*
// instruction order (usedef.go), which is precise enough there because the
// pass also plans runtime instrumentation for everything it cannot prove.
// The extractor has no such backstop — a wrong constant kills a benign
// process — so this dataflow is path-aware: a use is resolved by
// evaluating every definition that reaches it over the control-flow graph,
// and any disagreement (or any definition the model cannot evaluate) joins
// to ⊤ with a reason code. ⊤ means "bind nothing", which is always sound.
//
// Stack cells (local slots) are handled with the same engine: stores with
// resolvable bases are the cell's definitions, and a path on which no
// store reaches the load either yields the incoming parameter value (for
// parameter spill slots, resolved inter-procedurally through static
// callers) or ⊤ (for uninitialized locals). Three escape hatches keep the
// memory model honest:
//
//   - a store through an unresolvable base poisons every cell of the
//     function (ReasonStoreAlias);
//   - a cell whose address escapes (passed to a call, stored, returned, or
//     fed to arithmetic) may be written by code the model cannot see
//     (ReasonAddrEscape);
//   - parameters of address-taken or caller-less functions arrive from
//     outside the visible call graph (ReasonIndirectCaller,
//     ReasonNoStaticCaller).

package binscan

import (
	"bastion/internal/core/analysis"
	"bastion/internal/ir"
)

// cval is a dataflow value: a known constant or ⊤ with a reason.
type cval struct {
	ok     bool
	v      int64
	reason string
}

func konst(v int64) cval     { return cval{ok: true, v: v} }
func top(reason string) cval { return cval{reason: reason} }
func (a cval) join(b cval) cval {
	if !a.ok {
		return a
	}
	if !b.ok {
		return b
	}
	if a.v != b.v {
		return top(ReasonJoinDivergent)
	}
	return a
}

// valKey identifies one resolution query for memoization and cycle
// detection. kind 'r' queries register reg before instruction idx; kind
// 'c' queries the stack cell (slot, off, size) before instruction idx;
// kind 'p' queries parameter slot of fn across its callers.
type valKey struct {
	kind byte
	fn   string
	idx  int
	reg  ir.Reg
	slot int
	off  int64
	size int64
}

// entryBit marks "function entry reaches this instruction with no
// intervening definition" in a reaching mask.
const entryBit = uint64(1) << 63

// maxDefs bounds the bitmask width; registers or cells defined at more
// sites degrade to ⊤.
const maxDefs = 62

// valuation carries the dataflow caches.
type valuation struct {
	s *scan

	preds map[string][][]int
	memo  map[valKey]cval

	slotInfo map[string]*slotFacts
	// building guards slotFactsOf against self-recursion: resolving a
	// store base may evaluate a load from the same function before its
	// store list is complete. Queries issued mid-build see a conservative
	// all-⊤ view instead of a partial one.
	building map[string]bool
}

// slotFacts is the per-function stack-cell summary.
type slotFacts struct {
	// unresolvedStore: some store's base address did not resolve; all
	// cells of this function are untrusted.
	unresolvedStore bool
	// escaped marks slots whose address leaves the load/store-base
	// position.
	escaped map[int]bool
	// stores lists, per slot, the store instructions writing it (resolved
	// base), in program order.
	stores map[int][]int
}

func newValuation(s *scan) *valuation {
	return &valuation{
		s:        s,
		preds:    map[string][][]int{},
		memo:     map[valKey]cval{},
		slotInfo: map[string]*slotFacts{},
		building: map[string]bool{},
	}
}

// predsOf returns (building on demand) the CFG predecessor lists of f.
func (v *valuation) predsOf(f *ir.Function) [][]int {
	if p, ok := v.preds[f.Name]; ok {
		return p
	}
	p := make([][]int, len(f.Code))
	add := func(to, from int) {
		if to >= 0 && to < len(f.Code) {
			p[to] = append(p[to], from)
		}
	}
	for i := range f.Code {
		switch f.Code[i].Kind {
		case ir.Ret:
		case ir.Jump:
			add(f.Code[i].ToIndex, i)
		case ir.BranchNZ:
			add(f.Code[i].ToIndex, i)
			add(i+1, i)
		default:
			add(i+1, i)
		}
	}
	v.preds[f.Name] = p
	return p
}

// reach computes the reaching-definitions mask at every instruction for
// the given definition sites: bit k set in reach[i] means defs[k] reaches
// instruction i, entryBit means function entry reaches i with no def on
// some path. Returns nil when defs exceed the mask width.
func (v *valuation) reach(f *ir.Function, defs []int) []uint64 {
	if len(defs) > maxDefs {
		return nil
	}
	defAt := make(map[int]uint64, len(defs))
	for k, d := range defs {
		defAt[d] = uint64(1) << uint(k)
	}
	preds := v.predsOf(f)
	in := make([]uint64, len(f.Code))
	out := make([]uint64, len(f.Code))
	for changed := true; changed; {
		changed = false
		for i := range f.Code {
			var m uint64
			if i == 0 {
				m = entryBit
			}
			for _, p := range preds[i] {
				m |= out[p]
			}
			if m != in[i] {
				in[i] = m
				changed = true
			}
			o := m
			if bit, ok := defAt[i]; ok {
				o = bit
			}
			if o != out[i] {
				out[i] = o
				changed = true
			}
		}
	}
	return in
}

// operand resolves one instruction operand at its use site.
func (v *valuation) operand(f *ir.Function, idx int, o ir.Operand, depth int, active map[valKey]bool) cval {
	if o.Kind == ir.OperandImm {
		return konst(o.Imm)
	}
	return v.valueAt(f, idx, o.Reg, depth, active)
}

// valueAt resolves the value of reg as observed by instruction idx: the
// join over every definition reaching idx.
func (v *valuation) valueAt(f *ir.Function, idx int, reg ir.Reg, depth int, active map[valKey]bool) cval {
	key := valKey{kind: 'r', fn: f.Name, idx: idx, reg: reg}
	if cv, ok := v.memo[key]; ok {
		return cv
	}
	if active[key] {
		return top(ReasonJoinDivergent) // cyclic dependency (loop-carried value)
	}
	active[key] = true
	cv := v.valueAtUncached(f, idx, reg, depth, active)
	delete(active, key)
	v.memo[key] = cv
	return cv
}

func (v *valuation) valueAtUncached(f *ir.Function, idx int, reg ir.Reg, depth int, active map[valKey]bool) cval {
	var defs []int
	for i := range f.Code {
		if definesReg(&f.Code[i]) && f.Code[i].Dst == reg {
			defs = append(defs, i)
		}
	}
	mask := v.reach(f, defs)
	if mask == nil {
		return top(ReasonValueOrigin)
	}
	m := mask[idx]
	if m&entryBit != 0 {
		// Registers hold no value at function entry; a use reached by
		// entry is reading an undefined register (or dead code).
		return top(ReasonValueOrigin)
	}
	if m == 0 {
		// Unreachable instruction: nothing reaches it. ⊤ is harmless.
		return top(ReasonValueOrigin)
	}
	out := cval{}
	first := true
	for k, d := range defs {
		if m&(uint64(1)<<uint(k)) == 0 {
			continue
		}
		dv := v.evalDef(f, d, depth, active)
		if first {
			out, first = dv, false
		} else {
			out = out.join(dv)
		}
		if !out.ok {
			return out
		}
	}
	if first {
		return top(ReasonValueOrigin)
	}
	return out
}

// evalDef evaluates the value produced by the defining instruction at d.
func (v *valuation) evalDef(f *ir.Function, d int, depth int, active map[valKey]bool) cval {
	in := &f.Code[d]
	switch in.Kind {
	case ir.Const:
		return konst(in.Imm)
	case ir.Mov:
		return v.operand(f, d, in.Src, depth, active)
	case ir.Bin:
		a := v.operand(f, d, in.A, depth, active)
		if !a.ok {
			return a
		}
		b := v.operand(f, d, in.B, depth, active)
		if !b.ok {
			return b
		}
		if folded, ok := ir.FoldConst(in.Op, a.v, b.v); ok {
			return konst(folded)
		}
		return top(ReasonValueOrigin)
	case ir.Load:
		cell, ok := v.baseCell(f, d, in.Addr, depth, active)
		if !ok {
			return top(ReasonValueOrigin)
		}
		return v.cellValue(f, d, cell.slot, cell.off+in.Off, in.Size, depth, active)
	default:
		// LocalAddr/GlobalAddr/FuncAddr produce addresses, Call/CallInd/
		// Syscall produce runtime results: none are constants.
		return top(ReasonValueOrigin)
	}
}

// cellRef is a resolved stack-cell base: local slot plus constant offset.
type cellRef struct {
	slot int
	off  int64
}

// baseCell resolves an address register to a local stack cell. Every
// definition reaching the use must be the same slot (offsets are folded
// through Mov chains and constant Bin adjustments). Global bases resolve
// to ok=false here: global cells are writable by any function, so loads
// from them are never constant under this model.
func (v *valuation) baseCell(f *ir.Function, idx int, reg ir.Reg, depth int, active map[valKey]bool) (cellRef, bool) {
	var defs []int
	for i := range f.Code {
		if definesReg(&f.Code[i]) && f.Code[i].Dst == reg {
			defs = append(defs, i)
		}
	}
	mask := v.reach(f, defs)
	if mask == nil {
		return cellRef{}, false
	}
	m := mask[idx]
	if m == 0 || m&entryBit != 0 {
		return cellRef{}, false
	}
	var cell cellRef
	first := true
	for k, d := range defs {
		if m&(uint64(1)<<uint(k)) == 0 {
			continue
		}
		c, ok := v.evalAddr(f, d, depth, active)
		if !ok {
			return cellRef{}, false
		}
		if first {
			cell, first = c, false
		} else if c != cell {
			return cellRef{}, false
		}
	}
	return cell, !first
}

// evalAddr evaluates an address-producing definition to a cell.
func (v *valuation) evalAddr(f *ir.Function, d int, depth int, active map[valKey]bool) (cellRef, bool) {
	if depth > analysis.MaxUseDefDepth {
		return cellRef{}, false
	}
	in := &f.Code[d]
	switch in.Kind {
	case ir.LocalAddr:
		return cellRef{slot: in.Slot, off: in.Off}, true
	case ir.Mov:
		if in.Src.Kind != ir.OperandReg {
			return cellRef{}, false
		}
		return v.baseCell(f, d, in.Src.Reg, depth+1, active)
	case ir.Bin:
		// slot ± constant: common for field addressing.
		if in.Op != ir.OpAdd && in.Op != ir.OpSub {
			return cellRef{}, false
		}
		if in.A.Kind == ir.OperandReg {
			c, ok := v.baseCell(f, d, in.A.Reg, depth+1, active)
			if !ok {
				return cellRef{}, false
			}
			off := v.operand(f, d, in.B, depth+1, active)
			if !off.ok {
				return cellRef{}, false
			}
			if in.Op == ir.OpSub {
				return cellRef{slot: c.slot, off: c.off - off.v}, true
			}
			return cellRef{slot: c.slot, off: c.off + off.v}, true
		}
		return cellRef{}, false
	}
	return cellRef{}, false
}

// cellValue resolves the contents of a stack cell at a load site: the
// join of every store reaching the load, with function entry contributing
// the incoming parameter (for parameter spill slots) or ⊤ (uninitialized).
func (v *valuation) cellValue(f *ir.Function, idx int, slot int, off, size int64, depth int, active map[valKey]bool) cval {
	key := valKey{kind: 'c', fn: f.Name, idx: idx, slot: slot, off: off, size: size}
	if cv, ok := v.memo[key]; ok {
		return cv
	}
	if active[key] {
		return top(ReasonJoinDivergent)
	}
	active[key] = true
	cv := v.cellValueUncached(f, idx, slot, off, size, depth, active)
	delete(active, key)
	v.memo[key] = cv
	return cv
}

func (v *valuation) cellValueUncached(f *ir.Function, idx int, slot int, off, size int64, depth int, active map[valKey]bool) cval {
	sf := v.slotFactsOf(f)
	if sf.unresolvedStore {
		return top(ReasonStoreAlias)
	}
	if sf.escaped[slot] {
		return top(ReasonAddrEscape)
	}
	// Definition sites: stores to this slot. Exact-extent stores are
	// evaluable; overlapping stores of a different extent are ⊤.
	var defs []int
	exact := map[int]bool{}
	for _, d := range sf.stores[slot] {
		st := &f.Code[d]
		base, ok := v.baseCell(f, d, st.Addr, depth, active)
		if !ok || base.slot != slot {
			// slotFactsOf resolved this store once already; a divergent
			// re-resolution means context dependence — be conservative.
			return top(ReasonStoreAlias)
		}
		sOff := base.off + st.Off
		if sOff+st.Size <= off || sOff >= off+size {
			continue // disjoint
		}
		defs = append(defs, d)
		exact[d] = sOff == off && st.Size == size
	}
	mask := v.reach(f, defs)
	if mask == nil {
		return top(ReasonValueOrigin)
	}
	m := mask[idx]
	if m == 0 {
		return top(ReasonValueOrigin)
	}
	out := cval{}
	first := true
	if m&entryBit != 0 {
		ev := top(ReasonValueOrigin) // uninitialized local
		if slot < f.NumParams && off == 0 && size == ir.WordSize {
			ev = v.paramValue(f, slot, depth, active)
		}
		out, first = ev, false
		if !out.ok {
			return out
		}
	}
	for k, d := range defs {
		if m&(uint64(1)<<uint(k)) == 0 {
			continue
		}
		var dv cval
		if !exact[d] {
			dv = top(ReasonValueOrigin)
		} else {
			dv = v.operand(f, d, f.Code[d].Src, depth, active)
		}
		if first {
			out, first = dv, false
		} else {
			out = out.join(dv)
		}
		if !out.ok {
			return out
		}
	}
	if first {
		return top(ReasonValueOrigin)
	}
	return out
}

// paramValue resolves a function parameter across its static callers: the
// join of the argument operand at every direct callsite. Address-taken
// functions, caller-less entry points, and depth overruns are ⊤ — callers
// the static call graph cannot see may pass anything.
func (v *valuation) paramValue(f *ir.Function, slot int, depth int, active map[valKey]bool) cval {
	if depth >= analysis.MaxUseDefDepth {
		return top(ReasonDepthLimit)
	}
	if v.s.meta.IndirectTargets[f.Name] {
		return top(ReasonIndirectCaller)
	}
	refs := v.s.callRefs[f.Name]
	if len(refs) == 0 {
		return top(ReasonNoStaticCaller)
	}
	key := valKey{kind: 'p', fn: f.Name, slot: slot}
	if cv, ok := v.memo[key]; ok {
		return cv
	}
	if active[key] {
		return top(ReasonJoinDivergent) // recursive parameter
	}
	active[key] = true
	out := cval{}
	first := true
	for _, ref := range refs {
		g := v.s.prog.Func(ref.fn)
		call := &g.Code[ref.idx]
		var av cval
		if slot >= len(call.Args) {
			av = top(ReasonValueOrigin) // under-applied call: unseen default
		} else {
			av = v.operand(g, ref.idx, call.Args[slot], depth+1, active)
		}
		if first {
			out, first = av, false
		} else {
			out = out.join(av)
		}
		if !out.ok {
			break
		}
	}
	delete(active, key)
	if first {
		out = top(ReasonNoStaticCaller)
	}
	v.memo[key] = out
	return out
}

// slotFactsOf computes (once per function) which stack slots escape,
// which stores define which slots, and whether any store's base defeats
// the cell model entirely.
func (v *valuation) slotFactsOf(f *ir.Function) *slotFacts {
	if sf, ok := v.slotInfo[f.Name]; ok {
		return sf
	}
	if v.building[f.Name] {
		// Mid-build self-query: answer all-⊤ rather than expose a partial
		// store list (the conservative result may be memoized by the
		// caller; ⊤ is always sound and the build order is deterministic).
		return &slotFacts{unresolvedStore: true}
	}
	v.building[f.Name] = true
	defer delete(v.building, f.Name)
	sf := &slotFacts{escaped: map[int]bool{}, stores: map[int][]int{}}

	// Escape analysis: the destination register of each LocalAddr may be
	// consumed only as a load/store base. Any other use — call argument,
	// stored value, returned value, arithmetic, comparison, branch — lets
	// the address flow somewhere the model cannot follow. Register reuse
	// makes this conservative (a use of the register under a different
	// definition still marks the slot), which only widens ⊤.
	addrRegs := map[ir.Reg]map[int]bool{} // reg -> slots it may address
	for i := range f.Code {
		in := &f.Code[i]
		if in.Kind == ir.LocalAddr {
			if addrRegs[in.Dst] == nil {
				addrRegs[in.Dst] = map[int]bool{}
			}
			addrRegs[in.Dst][in.Slot] = true
		}
	}
	escapeReg := func(r ir.Reg) {
		for slot := range addrRegs[r] {
			sf.escaped[slot] = true
		}
	}
	escapeOperand := func(o ir.Operand) {
		if o.Kind == ir.OperandReg {
			escapeReg(o.Reg)
		}
	}
	for i := range f.Code {
		in := &f.Code[i]
		switch in.Kind {
		case ir.Load:
			// Addr used as base: fine.
		case ir.Store:
			escapeOperand(in.Src) // storing the address itself
		case ir.Mov:
			escapeOperand(in.Src)
		case ir.Bin:
			escapeOperand(in.A)
			escapeOperand(in.B)
		case ir.BranchNZ, ir.Ret:
			escapeOperand(in.Src)
		case ir.Call, ir.CallInd, ir.Syscall:
			for _, a := range in.Args {
				escapeOperand(a)
			}
			if in.Kind == ir.CallInd {
				escapeReg(in.Target)
			}
		case ir.Intrinsic:
			// Runtime-library intrinsics read the address but never write
			// through it; they do not leak it to guest-visible code.
		}
	}

	// Store classification.
	for i := range f.Code {
		in := &f.Code[i]
		if in.Kind != ir.Store {
			continue
		}
		cell, ok := v.baseCell(f, i, in.Addr, 0, map[valKey]bool{})
		if !ok {
			if v.globalBase(f, i, in.Addr) {
				continue // store to a global: no stack cell is affected
			}
			sf.unresolvedStore = true
			continue
		}
		sf.stores[cell.slot] = append(sf.stores[cell.slot], i)
	}
	v.slotInfo[f.Name] = sf
	return sf
}

// globalBase reports whether every definition of the store base reaching
// idx is a global address (possibly offset by constants). Such stores
// cannot touch stack cells.
func (v *valuation) globalBase(f *ir.Function, idx int, reg ir.Reg) bool {
	var defs []int
	for i := range f.Code {
		if definesReg(&f.Code[i]) && f.Code[i].Dst == reg {
			defs = append(defs, i)
		}
	}
	mask := v.reach(f, defs)
	if mask == nil {
		return false
	}
	m := mask[idx]
	if m == 0 || m&entryBit != 0 {
		return false
	}
	for k, d := range defs {
		if m&(uint64(1)<<uint(k)) == 0 {
			continue
		}
		if !v.globalAddrDef(f, d, 0) {
			return false
		}
	}
	return true
}

func (v *valuation) globalAddrDef(f *ir.Function, d int, depth int) bool {
	if depth > analysis.MaxUseDefDepth {
		return false
	}
	in := &f.Code[d]
	switch in.Kind {
	case ir.GlobalAddr:
		return true
	case ir.Mov:
		if in.Src.Kind != ir.OperandReg {
			return false
		}
		return v.globalBaseAll(f, d, in.Src.Reg, depth+1)
	case ir.Bin:
		if in.Op != ir.OpAdd && in.Op != ir.OpSub {
			return false
		}
		if in.A.Kind == ir.OperandReg && in.B.Kind == ir.OperandImm {
			return v.globalBaseAll(f, d, in.A.Reg, depth+1)
		}
		return false
	}
	return false
}

func (v *valuation) globalBaseAll(f *ir.Function, idx int, reg ir.Reg, depth int) bool {
	if depth > analysis.MaxUseDefDepth {
		return false
	}
	var defs []int
	for i := range f.Code {
		if definesReg(&f.Code[i]) && f.Code[i].Dst == reg {
			defs = append(defs, i)
		}
	}
	mask := v.reach(f, defs)
	if mask == nil {
		return false
	}
	m := mask[idx]
	if m == 0 || m&entryBit != 0 {
		return false
	}
	for k, d := range defs {
		if m&(uint64(1)<<uint(k)) == 0 {
			continue
		}
		if !v.globalAddrDef(f, d, depth) {
			return false
		}
	}
	return true
}
