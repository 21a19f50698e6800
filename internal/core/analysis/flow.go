// Syscall-flow analysis (SFIP-style): derive the program's syscall
// transition graph — which syscall number may legally follow which over
// any path of the instruction-level CFG — and emit it into the metadata
// for the monitor's syscall-flow (SF) context.
//
// The derivation is interprocedural. Every non-wrapper function gets a
// summary (FIRST: the nrs its invocation can emit first; LAST: the nrs it
// can emit last before returning; EMPTY: whether it can complete without
// emitting), computed by a forward dataflow over the function's CFG where
// the abstract state at an instruction is the set of possibly-last-emitted
// nrs plus a TOP element meaning "nothing emitted yet since function
// entry". A direct call to a wrapper is an emission point; a direct call
// to any other function composes that function's summary; an indirect
// call composes the union of the summaries of its target set — the
// refined set when Structure is given a refinement, the coarse
// address-taken ∩ signature frontier when it is not (the B-Side
// extractor) — so the flow graph inherits the target sets' soundness, and
// the coarse graph is a superset of the refined one.
//
// The program graph unions the transition edges contributed by every
// function body — so any function the harness invokes at top level has
// its internal orderings admitted — while the *cross-function* ordering
// (which function-level sequences are legal, and which nr may start a
// fresh process) is exactly what the entry function's CFG composes.
// Programs without an entry function produce an empty graph, which
// constrains nothing.

package analysis

import (
	"sort"

	"bastion/internal/core/metadata"
	"bastion/internal/ir"
)

// flowSummary is one function's emission summary.
type flowSummary struct {
	first map[uint32]bool // nrs that can be emitted first
	last  map[uint32]bool // nrs that can be emitted last
	empty bool            // can complete without emitting
}

func newFlowSummary() *flowSummary {
	return &flowSummary{first: map[uint32]bool{}, last: map[uint32]bool{}}
}

// flowState is the abstract dataflow state before one instruction: the set
// of nrs that may have been emitted last, plus top ("nothing emitted yet").
type flowState struct {
	top bool
	nrs map[uint32]bool
}

func (s *flowState) clone() flowState {
	c := flowState{top: s.top, nrs: make(map[uint32]bool, len(s.nrs))}
	for nr := range s.nrs {
		c.nrs[nr] = true
	}
	return c
}

// join unions o into s and reports whether s changed.
func (s *flowState) join(o flowState) bool {
	changed := false
	if o.top && !s.top {
		s.top = true
		changed = true
	}
	for nr := range o.nrs {
		if !s.nrs[nr] {
			if s.nrs == nil {
				s.nrs = map[uint32]bool{}
			}
			s.nrs[nr] = true
			changed = true
		}
	}
	return changed
}

// flowPass carries the derivation state.
type flowPass struct {
	s         *structure
	summaries map[string]*flowSummary
	changed   bool
}

// buildFlowGraph derives the transition graph from the linked program and
// stores it in meta.SyscallFlow.
func (s *structure) buildFlowGraph() {
	// A program without an entry function derives the empty graph: with no
	// composition root there is no sound start set, and an empty Start
	// would reject every first syscall. Empty constrains nothing instead
	// (the pre-SF compatibility behavior).
	s.meta.SyscallFlow = metadata.NewFlowGraph()
	if s.prog.Entry == "" || s.prog.Func(s.prog.Entry) == nil {
		return
	}
	fp := &flowPass{s: s, summaries: map[string]*flowSummary{}}
	// Deterministic function order for the fixpoint sweeps.
	names := make([]string, 0, len(s.prog.Funcs))
	for _, f := range s.prog.Funcs {
		if _, isWrapper := s.wrapperNr[f.Name]; isWrapper {
			continue
		}
		names = append(names, f.Name)
		fp.summaries[f.Name] = newFlowSummary()
	}
	sort.Strings(names)

	// Summary fixpoint: FIRST/LAST/EMPTY only grow, so iteration
	// terminates.
	for {
		fp.changed = false
		for _, name := range names {
			fp.analyze(s.prog.Func(name), nil)
		}
		if !fp.changed {
			break
		}
	}

	// Final pass with stable summaries accumulates the edges.
	g := metadata.NewFlowGraph()
	for _, name := range names {
		fp.analyze(s.prog.Func(name), g)
	}
	if entry := fp.summaries[s.prog.Entry]; entry != nil {
		starts := make([]uint32, 0, len(entry.first))
		for nr := range entry.first {
			starts = append(starts, nr)
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		for _, nr := range starts {
			g.AddStart(nr)
		}
	}
	s.meta.SyscallFlow = g
	s.stats.FlowNodes = len(g.Nodes)
	s.stats.FlowEdges = g.EdgeCount()
	s.stats.FlowStarts = len(g.Start)
}

// callEffect is the emission effect of one call instruction, composed from
// the callee summary (or the wrapper's single emission).
type callEffect struct {
	first map[uint32]bool
	last  map[uint32]bool
	empty bool
}

// effectOf resolves the emission effect of the instruction at f.Code[idx],
// or nil when the instruction cannot emit.
func (fp *flowPass) effectOf(f *ir.Function, idx int) *callEffect {
	in := &f.Code[idx]
	switch in.Kind {
	case ir.Call:
		return fp.calleeEffect(map[string]bool{in.Sym: true})
	case ir.CallInd:
		return fp.calleeEffect(fp.s.targets[siteKey{fn: f.Name, idx: idx}])
	}
	return nil
}

// calleeEffect unions the effects of a set of possible callees. Unknown
// targets and empty target sets contribute an empty (no-emission) effect,
// which is the permissive direction: it never rejects a benign ordering.
func (fp *flowPass) calleeEffect(targets map[string]bool) *callEffect {
	eff := &callEffect{first: map[uint32]bool{}, last: map[uint32]bool{}}
	if len(targets) == 0 {
		eff.empty = true
		return eff
	}
	for t := range targets {
		if nr, ok := fp.s.wrapperNr[t]; ok {
			eff.first[uint32(nr)] = true
			eff.last[uint32(nr)] = true
			continue
		}
		sum := fp.summaries[t]
		if sum == nil {
			eff.empty = true
			continue
		}
		for nr := range sum.first {
			eff.first[nr] = true
		}
		for nr := range sum.last {
			eff.last[nr] = true
		}
		if sum.empty {
			eff.empty = true
		}
	}
	return eff
}

// analyze runs the intra-function dataflow for f to a fixpoint, updating
// f's summary. When g is non-nil the pass also accumulates transition
// edges and emission nodes into the graph (done once summaries are
// stable; edges derived from partial summaries would only be a subset).
func (fp *flowPass) analyze(f *ir.Function, g *metadata.FlowGraph) {
	if f == nil || len(f.Code) == 0 {
		return
	}
	sum := fp.summaries[f.Name]
	in := make([]flowState, len(f.Code))
	reached := make([]bool, len(f.Code))
	in[0] = flowState{top: true, nrs: map[uint32]bool{}}
	reached[0] = true
	work := []int{0}
	push := func(idx int, st flowState) {
		if idx < 0 || idx >= len(f.Code) {
			return
		}
		if !reached[idx] {
			reached[idx] = true
			in[idx] = st.clone()
			work = append(work, idx)
			return
		}
		if in[idx].join(st) {
			work = append(work, idx)
		}
	}
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[idx]
		instr := &f.Code[idx]
		switch instr.Kind {
		case ir.Ret:
			for nr := range st.nrs {
				if !sum.last[nr] {
					sum.last[nr] = true
					fp.changed = true
				}
			}
			if st.top && !sum.empty {
				sum.empty = true
				fp.changed = true
			}
			continue
		case ir.Jump:
			push(instr.ToIndex, st)
			continue
		case ir.BranchNZ:
			push(instr.ToIndex, st)
			push(idx+1, st)
			continue
		case ir.Syscall:
			// Raw syscall outside a wrapper: validated programs keep
			// Syscall inside wrappers (which this pass treats as atomic
			// emissions and never analyzes), so nothing to do here beyond
			// falling through.
			push(idx+1, st)
			continue
		}
		eff := fp.effectOf(f, idx)
		if eff == nil {
			push(idx+1, st)
			continue
		}
		out := flowState{nrs: map[uint32]bool{}}
		if len(eff.first) > 0 {
			if g != nil {
				addEdges(g, st.nrs, eff.first)
			}
			if st.top {
				for nr := range eff.first {
					if !sum.first[nr] {
						sum.first[nr] = true
						fp.changed = true
					}
					if g != nil {
						g.Nodes[nr] = true
					}
				}
			}
		}
		for nr := range eff.last {
			out.nrs[nr] = true
			if g != nil {
				g.Nodes[nr] = true
			}
		}
		if eff.empty {
			out.join(st)
		}
		push(idx+1, out)
	}
}

// addEdges adds the cross product prev × next to the graph in sorted
// order, keeping graph construction deterministic.
func addEdges(g *metadata.FlowGraph, prev, next map[uint32]bool) {
	ps := make([]uint32, 0, len(prev))
	for nr := range prev {
		ps = append(ps, nr)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	ns := make([]uint32, 0, len(next))
	for nr := range next {
		ns = append(ns, nr)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	for _, a := range ps {
		for _, b := range ns {
			g.AddEdge(a, b)
		}
	}
}
