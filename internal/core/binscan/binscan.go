// Package binscan implements BASTION's B-Side regime: binary-only policy
// extraction for guests that ship no compiler metadata. Where the compiler
// pass (internal/core/analysis) traces contexts cooperatively — it sees
// the unlinked program, plans instrumentation, and records ground truth as
// it goes — this package is handed nothing but the linked,
// instrumentation-free IR program and must reconstruct a
// metadata-compatible policy artifact from the bytes alone:
//
//   - syscall-site discovery: Syscall instructions and the wrapper idiom
//     (a function whose single Syscall carries a constant number) locate
//     every system call the binary can issue;
//   - call-type classification (CT), control-flow recovery (CF) and
//     syscall flow (SF) come from analysis.Structure, the compiler pass's
//     structural builder, called with no refinement: the callee→caller
//     relations are the exact §6.2 reverse reachability over the direct
//     call graph, while indirect callsites stay at the *coarse* frontier
//     (every address-taken, signature-compatible function, Exact=false),
//     because the binary carries no points-to seed facts. The flow
//     composition is monotone in those target sets, so the extracted
//     transition graph is a superset of the traced one;
//   - argument integrity (AI): constant arguments at sensitive callsites
//     are recovered by a conservative reaching-definitions dataflow over
//     registers and resolvable stack cells (see constarg.go), joining to ⊤
//     whenever paths disagree or a value's origin cannot be modeled.
//
// Every recovered or abandoned fact carries provenance: a Fact row with a
// stable reason code (mirroring the metadata.Untraced vocabulary), so the
// audit can diff extraction against compiler ground truth per context.
//
// The extracted artifact is intentionally *looser* than the traced one —
// coarse indirect sets, no memory-backed argument bindings, no shadow
// instrumentation — but it must never be tighter than the dynamic truth:
// soundness (extracted ⊇ every dynamic trace) is the acceptance gate,
// enforced by the differential suite in soundness_test.go.
package binscan

import (
	"fmt"
	"sort"

	"bastion/internal/core/analysis"
	"bastion/internal/core/metadata"
	"bastion/internal/ir"
	"bastion/internal/kernel"
)

// Stats summarizes one extraction.
type Stats struct {
	Funcs             int
	Wrappers          int // syscall wrapper functions discovered
	SensitiveWrappers int

	TotalCallsites     int
	DirectCallsites    int
	IndirectCallsites  int
	SensitiveCallsites int // direct callsites invoking sensitive wrappers

	AddressTaken int // functions whose address is materialized
	CoarseEdges  int // Σ coarse targets over indirect callsites
	AllowedPairs int // (syscall, indirect callsite) pairs admitted

	ConstArgs int // argument positions recovered as constants
	TopArgs   int // argument positions abandoned at ⊤

	FlowNodes int
	FlowEdges int
}

// Fact is one provenance row: which context a recovered (or abandoned)
// fact belongs to, the stable reason code, where it was found, and a
// human-readable detail. Facts are sorted and deterministic.
type Fact struct {
	Context  string // "CT", "CF", "AI", "SF"
	Code     string
	Location string
	Detail   string
}

func (f Fact) String() string {
	return fmt.Sprintf("%-2s %-24s %-28s %s", f.Context, f.Code, f.Location, f.Detail)
}

// Extraction reason codes. The AI codes mirror the metadata.Untraced
// vocabulary (plus extraction-specific refinements) so audits can treat
// compiler give-ups and extractor give-ups uniformly.
const (
	// ReasonConstRecovered tags an argument position resolved to a
	// compile-time constant by the dataflow.
	ReasonConstRecovered = "const-recovered"
	// ReasonValueOrigin mirrors metadata.UntracedValueOrigin: the backward
	// trace ended at an instruction the dataflow cannot model (a call
	// result, an unresolvable load, an uninitialized cell).
	ReasonValueOrigin = metadata.UntracedValueOrigin
	// ReasonJoinDivergent: control-flow paths reach the use with different
	// constants; the join is ⊤, never a stale pick.
	ReasonJoinDivergent = "join-divergent"
	// ReasonDepthLimit: inter-procedural parameter resolution exceeded
	// analysis.MaxUseDefDepth.
	ReasonDepthLimit = "depth-limit"
	// ReasonIndirectCaller: the function is address-taken, so callers
	// invisible to the static call graph may pass any value.
	ReasonIndirectCaller = "indirect-caller-possible"
	// ReasonNoStaticCaller: no Call instruction targets the function; its
	// parameters arrive from outside the binary (an entry point).
	ReasonNoStaticCaller = "no-static-caller"
	// ReasonAddrEscape: the address of the stack cell escapes (passed to a
	// call or otherwise materialized), so unseen writers may mutate it.
	ReasonAddrEscape = "address-escapes"
	// ReasonStoreAlias: the function contains a store through an address
	// the cell language cannot resolve; all of its stack cells are
	// untrusted.
	ReasonStoreAlias = "store-unresolved-base"
	// ReasonWrapperRemap: the wrapper does not pass its parameters
	// positionally to the syscall instruction, so caller-position constants
	// cannot be compared against trap registers.
	ReasonWrapperRemap = "wrapper-arg-remap"
)

// Result is the extractor output: a metadata artifact the monitor can run,
// per-fact provenance, and extraction statistics.
type Result struct {
	Meta  *metadata.Metadata
	Stats Stats
	Facts []Fact
}

// scan carries extraction state.
type scan struct {
	prog *ir.Program

	sensitive map[uint32]bool
	// wrapperNr maps wrapper function name -> syscall number.
	wrapperNr map[string]int64
	// positional marks wrappers that pass parameters straight through to
	// the syscall instruction (position i -> syscall argument i).
	positional map[string]bool
	// callRefs maps callee -> direct call instructions, in program order.
	callRefs map[string][]callRef

	meta  *metadata.Metadata
	stats Stats
	facts []Fact

	vals *valuation
}

type callRef struct {
	fn  string
	idx int
}

// Extract reconstructs a policy artifact from the program alone, protecting
// the Table 1 sensitive syscalls (kernel.SensitiveSyscalls) like the
// compiler pass does by default. The program must validate; it is linked
// in place if it is not already (the artifact's addresses refer to the
// program as handed in, so extracting from an instrumented binary yields
// instrumented addresses and extracting from a raw binary yields raw ones).
func Extract(prog *ir.Program) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("binscan: %w", err)
	}
	if !prog.Linked() {
		if err := prog.Link(); err != nil {
			return nil, fmt.Errorf("binscan: %w", err)
		}
	}
	sensitive := map[uint32]bool{}
	for _, nr := range kernel.SensitiveSyscalls {
		sensitive[nr] = true
	}
	meta, st := analysis.Structure(prog, sensitive, nil)
	s := &scan{
		prog:       prog,
		sensitive:  sensitive,
		wrapperNr:  map[string]int64{},
		positional: map[string]bool{},
		callRefs:   map[string][]callRef{},
		meta:       meta,
		stats: Stats{
			Funcs:              len(prog.Funcs),
			TotalCallsites:     st.TotalCallsites,
			DirectCallsites:    st.DirectCallsites,
			IndirectCallsites:  st.IndirectCallsites,
			SensitiveCallsites: st.SensitiveCallsites,
			AddressTaken:       len(meta.IndirectTargets),
			CoarseEdges:        st.IndirectEdgesCoarse,
			AllowedPairs:       st.AllowedPairsRefined,
			FlowNodes:          st.FlowNodes,
			FlowEdges:          st.FlowEdges,
		},
	}
	s.vals = newValuation(s)

	s.findWrappers()
	s.structureFacts()
	s.findCallRefs()
	s.recoverArguments()

	sort.Slice(s.facts, func(i, j int) bool {
		a, b := s.facts[i], s.facts[j]
		if a.Context != b.Context {
			return a.Context < b.Context
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Location != b.Location {
			return a.Location < b.Location
		}
		return a.Detail < b.Detail
	})
	if err := s.meta.Validate(); err != nil {
		return nil, fmt.Errorf("binscan: extracted artifact invalid: %w", err)
	}
	return &Result{Meta: s.meta, Stats: s.stats, Facts: s.facts}, nil
}

func (s *scan) fact(ctx, code, loc, detail string) {
	s.facts = append(s.facts, Fact{Context: ctx, Code: code, Location: loc, Detail: detail})
}

func loc(fn string, addr uint64) string { return fmt.Sprintf("%s:%#x", fn, addr) }

// findWrappers discovers the syscall wrapper idiom and checks whether each
// wrapper passes its parameters positionally (parameter i feeds syscall
// argument i), which is what makes caller-position constants comparable
// against the trap-time registers.
func (s *scan) findWrappers() {
	for _, f := range s.prog.Funcs {
		nr, ok := ir.SyscallNumber(f)
		if !ok {
			continue
		}
		s.wrapperNr[f.Name] = nr
		s.stats.Wrappers++
		if s.sensitive[uint32(nr)] {
			s.stats.SensitiveWrappers++
		}
		s.positional[f.Name] = wrapperPositional(f)
		detail := fmt.Sprintf("nr=%d (%s)", nr, kernel.Name(uint32(nr)))
		if !s.positional[f.Name] {
			detail += " non-positional"
		}
		s.fact("CT", "wrapper-idiom", f.Name, detail)
	}
}

// wrapperPositional reports whether every syscall argument j of the
// wrapper's Syscall instruction is the whole-word load of parameter slot j.
func wrapperPositional(f *ir.Function) bool {
	var sys *ir.Instr
	for i := range f.Code {
		if f.Code[i].Kind == ir.Syscall {
			sys = &f.Code[i]
			break
		}
	}
	if sys == nil {
		return false
	}
	for j, arg := range sys.Args[1:] {
		if arg.Kind != ir.OperandReg {
			return false
		}
		if !isParamLoad(f, arg.Reg, j) {
			return false
		}
	}
	return true
}

// isParamLoad reports whether reg is defined (uniquely, textually) by a
// whole-word load of parameter slot n.
func isParamLoad(f *ir.Function, reg ir.Reg, n int) bool {
	var load *ir.Instr
	for i := range f.Code {
		in := &f.Code[i]
		if definesReg(in) && in.Dst == reg {
			if load != nil {
				return false // multiple defs: not the simple idiom
			}
			if in.Kind != ir.Load || in.Size != ir.WordSize || in.Off != 0 {
				return false
			}
			load = in
		}
	}
	if load == nil {
		return false
	}
	// The load's base register must be the address of slot n.
	for i := range f.Code {
		in := &f.Code[i]
		if definesReg(in) && in.Dst == load.Addr {
			if in.Kind != ir.LocalAddr || in.Slot != n || in.Off != 0 {
				return false
			}
		}
	}
	return true
}

// structureFacts logs the CT, CF and SF facts of the shared structural
// builder's metadata. Extract sorts the facts, so map order is harmless.
func (s *scan) structureFacts() {
	for nr, ct := range s.meta.CallTypes {
		mode := ""
		if ct.Direct {
			mode = "direct"
		}
		if ct.Indirect {
			if mode != "" {
				mode += "+"
			}
			mode += "indirect"
		}
		s.fact("CT", "callable", ct.Name, fmt.Sprintf("nr=%d %s via %s", nr, mode, ct.Wrapper))
	}
	for callee, callers := range s.meta.ValidCallers {
		for caller := range callers {
			s.fact("CF", "caller-edge", callee, "caller "+caller)
		}
	}
	// With no points-to seed facts in a bare binary, every indirect site
	// stays at the coarse frontier: every address-taken,
	// signature-compatible function.
	for addr, site := range s.meta.IndirectSites {
		s.fact("CF", "indirect-frontier", loc(site.Caller, addr),
			fmt.Sprintf("sig=%q %d coarse targets", site.TypeSig, len(site.Coarse)))
	}
	g := s.meta.SyscallFlow
	for nr := range g.Start {
		s.fact("SF", "start-nr", kernel.Name(nr), fmt.Sprintf("nr=%d may open a process", nr))
	}
	for a, tos := range g.Edges {
		for b := range tos {
			s.fact("SF", "transition-edge", kernel.Name(a), fmt.Sprintf("-> %s (nr %d->%d)", kernel.Name(b), a, b))
		}
	}
}

// findCallRefs indexes every direct call instruction by callee for the
// constant-argument dataflow's parameter resolution.
func (s *scan) findCallRefs() {
	for _, f := range s.prog.Funcs {
		for i := range f.Code {
			if in := &f.Code[i]; in.Kind == ir.Call {
				s.callRefs[in.Sym] = append(s.callRefs[in.Sym], callRef{fn: f.Name, idx: i})
			}
		}
	}
}

// recoverArguments runs the constant-argument dataflow at every direct
// callsite of a sensitive wrapper. Every such callsite gets an ArgSite
// with IsSyscall set — even when no argument resolves — because the
// monitor's argument-integrity walk treats a sensitive callsite without an
// ArgSite record as a violation.
func (s *scan) recoverArguments() {
	for _, f := range s.prog.Funcs {
		for i := range f.Code {
			in := &f.Code[i]
			if in.Kind != ir.Call {
				continue
			}
			nr, isWrapper := s.wrapperNr[in.Sym]
			if !isWrapper || !s.sensitive[uint32(nr)] {
				continue
			}
			addr := f.InstrAddr(i)
			site := metadata.ArgSite{
				Addr:      addr,
				Caller:    f.Name,
				Target:    in.Sym,
				SyscallNr: uint32(nr),
				IsSyscall: true,
			}
			for j, arg := range in.Args {
				pos := j + 1
				if pos > 6 {
					break
				}
				if !s.positional[in.Sym] {
					s.abandonArg(f, i, pos, in.Sym, ReasonWrapperRemap)
					continue
				}
				cv := s.vals.operand(f, i, arg, 0, map[valKey]bool{})
				if cv.ok {
					site.Args = append(site.Args, metadata.ArgSpec{
						Pos:   pos,
						Kind:  metadata.ArgConst,
						Const: cv.v,
					})
					s.stats.ConstArgs++
					s.fact("AI", ReasonConstRecovered, loc(f.Name, addr),
						fmt.Sprintf("%s p%d = %d", in.Sym, pos, cv.v))
					continue
				}
				s.abandonArg(f, i, pos, in.Sym, cv.reason)
			}
			sort.Slice(site.Args, func(a, b int) bool { return site.Args[a].Pos < site.Args[b].Pos })
			s.meta.ArgSites[addr] = site
		}
	}
	sort.Slice(s.meta.Untraced, func(i, j int) bool {
		a, b := s.meta.Untraced[i], s.meta.Untraced[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		return a.Pos < b.Pos
	})
}

// abandonArg records one ⊤ argument position with its reason, both as a
// provenance fact and as a metadata.Untraced row.
func (s *scan) abandonArg(f *ir.Function, idx, pos int, target, reason string) {
	addr := f.InstrAddr(idx)
	s.stats.TopArgs++
	s.meta.Untraced = append(s.meta.Untraced, metadata.UntracedArg{
		Addr:   addr,
		Caller: f.Name,
		Target: target,
		Pos:    pos,
		Reason: reason,
	})
	s.fact("AI", reason, loc(f.Name, addr), fmt.Sprintf("%s p%d", target, pos))
}

// definesReg reports whether the instruction writes a destination register.
func definesReg(in *ir.Instr) bool {
	switch in.Kind {
	case ir.Const, ir.Mov, ir.Bin, ir.Load, ir.LocalAddr, ir.GlobalAddr,
		ir.FuncAddr, ir.Call, ir.CallInd, ir.Syscall:
		return true
	}
	return false
}
