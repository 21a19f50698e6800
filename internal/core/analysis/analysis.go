// Package analysis implements the BASTION compiler pass (§6 of the paper):
//
//   - Call-type analysis (§6.1) classifies every system call as
//     not-callable, directly-callable, and/or indirectly-callable by
//     inspecting how its wrapper function is referenced.
//   - Control-flow analysis (§6.2) extracts callee→caller relations for
//     every function on a path that reaches a sensitive system call,
//     stopping at main or at indirect callsites.
//   - Argument-integrity analysis (§6.3) performs a field-sensitive,
//     inter-procedural backward use-def trace from every sensitive system
//     call argument, identifies the sensitive variables, and instruments
//     the program with the runtime-library intrinsics of Table 2
//     (ctx_write_mem after stores to sensitive variables, ctx_bind_mem_X /
//     ctx_bind_const_X before callsites).
//
// The pass runs on an unlinked program, plans instrumentation, rewrites the
// functions, links the result, and only then materializes address-keyed
// metadata, so all callsite addresses in the metadata refer to the final
// instrumented binary. The structure-only half of that metadata (CT, CF
// and the syscall-flow graph) is Structure, which the B-Side extractor
// (internal/core/binscan) calls too.
package analysis

import (
	"fmt"
	"sort"

	"bastion/internal/core/metadata"
	"bastion/internal/ir"
)

// Options configures the pass.
type Options struct {
	// Sensitive is the set of syscall numbers receiving full context
	// protection (defaults to Table 1's 20 via the caller).
	Sensitive []uint32
}

// MaxUseDefDepth bounds inter-procedural parameter tracing, shared with
// the B-Side extractor's constant-argument dataflow.
const MaxUseDefDepth = 6

// Stats are the Table 5 instrumentation statistics.
type Stats struct {
	TotalCallsites     int // all application callsites
	DirectCallsites    int
	IndirectCallsites  int
	SensitiveCallsites int // callsites invoking sensitive wrappers
	SensitiveIndirect  int // sensitive syscalls called indirectly
	CtxWriteMem        int // inserted ctx_write_mem instrumentation
	CtxBindMem         int
	CtxBindConst       int
	UntracedArgs       int // arguments the use-def trace could not resolve

	// Points-to refinement statistics: callsite→target edges and
	// (syscall, callsite) policy pairs, before and after refinement.
	IndirectEdgesCoarse  int // Σ address-taken, signature-matched targets
	IndirectEdgesRefined int // Σ points-to targets (always ≤ coarse)
	IndirectEdgesRemoved int
	AllowedPairsCoarse   int // coarse (syscall, callsite) AllowedIndirect pairs
	AllowedPairsRefined  int
	AllowedPairsRemoved  int
	ExactIndirectSites   int // callsites whose target set resolved exactly
	EscapedIndirectSites int // callsites that fell back to address-taken

	// Syscall-flow graph statistics (SF context).
	FlowNodes  int // distinct syscall nrs the program can emit
	FlowEdges  int // legal nr→nr transitions
	FlowStarts int // nrs that may open a fresh process
}

// Total returns the total instrumentation site count (Table 5 last row).
func (s Stats) Total() int { return s.CtxWriteMem + s.CtxBindMem + s.CtxBindConst }

// Result is the compiler output: the instrumented program (linked), the
// context metadata, and the instrumentation statistics.
type Result struct {
	Prog  *ir.Program
	Meta  *metadata.Metadata
	Stats Stats
}

// pass carries analysis state.
type pass struct {
	prog      *ir.Program
	opts      Options
	sensitive map[uint32]bool

	// wrapperNr maps wrapper function name -> syscall number.
	wrapperNr map[string]int64

	stats Stats

	// plan collects instrumentation insertions per function.
	plan map[string][]insertion

	// sensVars is the set of sensitive variables (field-sensitive).
	sensVars map[varKey]bool
	// sensParams tracks (function, param) pairs already traced, to
	// terminate inter-procedural recursion.
	sensParams map[paramKey]bool
	// derefWriteFns tracks functions whose pointer-parameter stores are
	// instrumented (memcpy-style writers into sensitive buffers).
	derefWriteFns map[paramKey]bool

	// argSites collects argument records keyed by (function, callsite
	// original index); addresses are resolved after relinking.
	argSites map[siteKey]*argSiteDraft

	// untraced records arguments the use-def trace gave up on, keyed by
	// (function, original callsite index, position) so repeat visits do
	// not duplicate the metadata record.
	untraced map[untracedKey]untracedDraft

	// planned dedupes instrumentation decisions; planSeq orders them.
	planned map[string]bool
	planSeq int
	// remap maps (function, original index) to instrumented index.
	remap map[string]map[int]int
}

type siteKey struct {
	fn  string
	idx int // original instruction index of the callsite
}

type paramKey struct {
	fn    string
	param int
}

type argSiteDraft struct {
	target    string
	syscallNr uint32
	isSyscall bool
	args      []metadata.ArgSpec
}

type untracedKey struct {
	fn  string
	idx int // original instruction index of the callsite
	pos int // 1-based argument position
}

type untracedDraft struct {
	target string
	reason string
}

// recordUntraced notes one unresolvable argument for the audit. The stats
// counter is incremented by the callers (once per trace attempt, matching
// the Table 5 semantics); the metadata record is deduplicated.
func (p *pass) recordUntraced(fn string, idx, pos int, target, reason string) {
	key := untracedKey{fn: fn, idx: idx, pos: pos}
	if _, ok := p.untraced[key]; ok {
		return
	}
	p.untraced[key] = untracedDraft{target: target, reason: reason}
}

// Run executes the full pass on prog, which must validate but need not be
// linked. The program is mutated in place (instrumented and linked).
func Run(prog *ir.Program, opts Options) (*Result, error) {
	p := &pass{
		prog:          prog,
		opts:          opts,
		sensitive:     map[uint32]bool{},
		wrapperNr:     findWrappers(prog),
		plan:          map[string][]insertion{},
		sensVars:      map[varKey]bool{},
		sensParams:    map[paramKey]bool{},
		derefWriteFns: map[paramKey]bool{},
		argSites:      map[siteKey]*argSiteDraft{},
		untraced:      map[untracedKey]untracedDraft{},
	}
	for _, nr := range opts.Sensitive {
		p.sensitive[uint32(nr)] = true
	}
	p.analyzeArguments()
	if err := p.instrument(); err != nil {
		return nil, err
	}
	if err := prog.Link(); err != nil {
		return nil, err
	}
	meta, err := p.buildMetadata()
	if err != nil {
		return nil, err
	}
	return &Result{Prog: prog, Meta: meta, Stats: p.stats}, nil
}

// isSensitiveWrapper reports whether fn wraps a sensitive syscall.
func (p *pass) isSensitiveWrapper(fn string) (uint32, bool) {
	nr, ok := p.wrapperNr[fn]
	if !ok {
		return 0, false
	}
	return uint32(nr), p.sensitive[uint32(nr)]
}

// buildMetadata constructs the address-keyed metadata from the linked,
// instrumented program: the shared structural builder, refined by the
// points-to analysis, plus the argument sites and untraced arguments.
func (p *pass) buildMetadata() (*metadata.Metadata, error) {
	meta, st := Structure(p.prog, p.sensitive, p.runPointsTo().refine)
	st.CtxWriteMem = p.stats.CtxWriteMem
	st.CtxBindMem = p.stats.CtxBindMem
	st.CtxBindConst = p.stats.CtxBindConst
	st.UntracedArgs = p.stats.UntracedArgs
	p.stats = st

	// Materialize argument sites with final addresses.
	for key, draft := range p.argSites {
		f := p.prog.Func(key.fn)
		if f == nil {
			return nil, fmt.Errorf("analysis: lost function %q", key.fn)
		}
		idx := p.remappedIndex(key.fn, key.idx)
		site := metadata.ArgSite{
			Addr:      f.InstrAddr(idx),
			Caller:    key.fn,
			Target:    draft.target,
			SyscallNr: draft.syscallNr,
			IsSyscall: draft.isSyscall,
			Args:      draft.args,
		}
		sort.Slice(site.Args, func(i, j int) bool { return site.Args[i].Pos < site.Args[j].Pos })
		meta.ArgSites[site.Addr] = site
	}

	// Materialize the untraced-argument records with final addresses.
	for key, draft := range p.untraced {
		f := p.prog.Func(key.fn)
		if f == nil {
			return nil, fmt.Errorf("analysis: lost function %q", key.fn)
		}
		meta.Untraced = append(meta.Untraced, metadata.UntracedArg{
			Addr:   f.InstrAddr(p.remappedIndex(key.fn, key.idx)),
			Caller: key.fn,
			Target: draft.target,
			Pos:    key.pos,
			Reason: draft.reason,
		})
	}
	sort.Slice(meta.Untraced, func(i, j int) bool {
		a, b := meta.Untraced[i], meta.Untraced[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		return a.Pos < b.Pos
	})
	return meta, nil
}
