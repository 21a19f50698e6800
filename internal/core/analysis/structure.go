// Structure-only policy construction. The CT (§6.1) and CF (§6.2)
// contexts and the SFIP-style SF context follow from the program's call
// structure alone, so one builder derives them for both front ends: the
// compiler pass narrows each indirect callsite with its points-to result,
// and the B-Side extractor (internal/core/binscan) passes no refinement
// and stays at the coarse frontier. Every step is monotone in the
// per-site target sets, so the extracted CF and SF policy admits
// everything the traced one does.

package analysis

import (
	"sort"

	"bastion/internal/core/metadata"
	"bastion/internal/ir"
	"bastion/internal/kernel"
)

// Refinement narrows the indirect callsite f.Code[idx] to the functions
// whose address may reach its target register. exact=false keeps the site
// at the coarse frontier.
type Refinement func(f *ir.Function, idx int) (targets map[string]bool, exact bool)

// structure carries one derivation.
type structure struct {
	prog      *ir.Program
	sensitive map[uint32]bool
	// wrapperNr maps wrapper function name -> syscall number.
	wrapperNr map[string]int64
	// targets maps each indirect callsite to its refined target set.
	targets map[siteKey]map[string]bool
	meta    *metadata.Metadata
	stats   Stats
}

// Structure derives the structure-only half of a policy from the linked
// program: Entry, Funcs, Callsites, CallTypes, IndirectTargets,
// ValidCallers, IndirectSites, AllowedIndirect[Coarse] and SyscallFlow,
// plus the callsite, indirect-edge, allowed-pair and flow counters of
// Stats. refine narrows each indirect callsite below the coarse frontier
// (every address-taken function with the callsite's signature); nil keeps
// every site there, with Exact=false.
func Structure(prog *ir.Program, sensitive map[uint32]bool, refine Refinement) (*metadata.Metadata, Stats) {
	s := &structure{
		prog:      prog,
		sensitive: sensitive,
		wrapperNr: findWrappers(prog),
		targets:   map[siteKey]map[string]bool{},
		meta:      metadata.New(),
	}
	s.scan()
	s.indirectSites(s.validCallers(), refine)
	s.buildFlowGraph()
	return s.meta, s.stats
}

// findWrappers maps every syscall wrapper function to its syscall number.
func findWrappers(prog *ir.Program) map[string]int64 {
	nrs := map[string]int64{}
	for _, f := range prog.Funcs {
		if nr, ok := ir.SyscallNumber(f); ok {
			nrs[f.Name] = nr
		}
	}
	return nrs
}

// scan builds the function table, the callsite map, the address-taken set
// and the call-type classification in one walk over the instructions.
func (s *structure) scan() {
	s.meta.Entry = s.prog.Entry
	for _, f := range s.prog.Funcs {
		s.meta.Funcs[f.Name] = metadata.FuncInfo{
			Name:  f.Name,
			Entry: f.Base,
			End:   f.Base + uint64(len(f.Code))*ir.InstrSize,
		}
	}
	for _, f := range s.prog.Funcs {
		for i := range f.Code {
			in := &f.Code[i]
			switch in.Kind {
			case ir.Call:
				s.stats.TotalCallsites++
				s.stats.DirectCallsites++
				cs := metadata.Callsite{
					Addr:    f.InstrAddr(i),
					RetAddr: f.InstrAddr(i + 1),
					Caller:  f.Name,
					Kind:    metadata.SiteDirect,
					Target:  in.Sym,
				}
				s.meta.Callsites[cs.RetAddr] = cs
				if s.markCallable(in.Sym, false) {
					s.stats.SensitiveCallsites++
				}
			case ir.CallInd:
				s.stats.TotalCallsites++
				s.stats.IndirectCallsites++
				cs := metadata.Callsite{
					Addr:    f.InstrAddr(i),
					RetAddr: f.InstrAddr(i + 1),
					Caller:  f.Name,
					Kind:    metadata.SiteIndirect,
					TypeSig: in.TypeSig,
				}
				s.meta.Callsites[cs.RetAddr] = cs
			case ir.FuncAddr:
				s.meta.IndirectTargets[in.Sym] = true
				if s.markCallable(in.Sym, true) {
					s.stats.SensitiveIndirect++
				}
			}
		}
	}
}

// markCallable records that sym, when it is a syscall wrapper, is called
// directly or has its address taken (§6.1), and reports whether it wraps a
// sensitive syscall.
func (s *structure) markCallable(sym string, indirect bool) bool {
	nr, ok := s.wrapperNr[sym]
	if !ok {
		return false
	}
	ct := s.meta.CallTypes[uint32(nr)]
	ct.Nr = uint32(nr)
	ct.Name = kernel.Name(uint32(nr))
	ct.Wrapper = sym
	if indirect {
		ct.Indirect = true
	} else {
		ct.Direct = true
	}
	s.meta.CallTypes[uint32(nr)] = ct
	return s.sensitive[uint32(nr)]
}

// validCallers fills ValidCallers with the callee→caller relations of
// every function on a path to a sensitive syscall wrapper (§6.2): reverse
// reachability from the sensitive wrappers over direct call edges,
// stopping at main and not crossing indirect callsites. It returns, per
// sensitive syscall, the functions on such a path, which drive
// AllowedIndirect.
func (s *structure) validCallers() map[uint32]map[string]bool {
	// Direct call graph: callee -> callers.
	callers := map[string]map[string]bool{}
	for _, f := range s.prog.Funcs {
		for i := range f.Code {
			in := &f.Code[i]
			if in.Kind != ir.Call {
				continue
			}
			if callers[in.Sym] == nil {
				callers[in.Sym] = map[string]bool{}
			}
			callers[in.Sym][f.Name] = true
		}
	}
	// Wrappers of one syscall share its set, so the set is the union of
	// their reverse reachability whatever order they are visited in.
	reaches := map[uint32]map[string]bool{}
	for fn, nr := range s.wrapperNr {
		if !s.sensitive[uint32(nr)] {
			continue
		}
		set := reaches[uint32(nr)]
		if set == nil {
			set = map[string]bool{}
			reaches[uint32(nr)] = set
		}
		set[fn] = true
		work := []string{fn}
		for len(work) > 0 {
			callee := work[0]
			work = work[1:]
			for caller := range callers[callee] {
				if s.meta.ValidCallers[callee] == nil {
					s.meta.ValidCallers[callee] = map[string]bool{}
				}
				s.meta.ValidCallers[callee][caller] = true
				// Recursion stops at main; indirect reachability of the
				// caller is recorded via IndirectTargets and ends monitor
				// unwinding.
				if caller == s.prog.Entry || set[caller] {
					continue
				}
				set[caller] = true
				work = append(work, caller)
			}
		}
	}
	return reaches
}

// indirectSites fills IndirectSites and the AllowedIndirect policies. An
// indirect callsite may start a path to syscall nr iff a function in its
// target set reaches nr (the statically expected partial traces of §7.3).
// The coarse baseline admits every address-taken function with the
// callsite's signature; refine shrinks that to the functions whose
// address actually flows into the callsite.
func (s *structure) indirectSites(reaches map[uint32]map[string]bool, refine Refinement) {
	sigOf := map[string]string{}
	for _, f := range s.prog.Funcs {
		sigOf[f.Name] = f.TypeSig
	}
	s.meta.AllowedIndirectCoarse = metadata.NrAddrSets{}
	s.meta.IndirectSites = map[uint64]metadata.IndirectSite{}
	for _, f := range s.prog.Funcs {
		for i := range f.Code {
			in := &f.Code[i]
			if in.Kind != ir.CallInd {
				continue
			}
			coarse := map[string]bool{}
			for t := range s.meta.IndirectTargets {
				if in.TypeSig == "" || sigOf[t] == in.TypeSig {
					coarse[t] = true
				}
			}
			refined, exact := coarse, false
			if refine != nil {
				if vals, ok := refine(f, i); ok {
					refined, exact = map[string]bool{}, true
					for t := range vals {
						if coarse[t] {
							refined[t] = true
						}
					}
				}
			}
			s.targets[siteKey{fn: f.Name, idx: i}] = refined
			addr := f.InstrAddr(i)
			s.meta.IndirectSites[addr] = metadata.IndirectSite{
				Addr:    addr,
				Caller:  f.Name,
				TypeSig: in.TypeSig,
				Targets: sortedNames(refined),
				Coarse:  sortedNames(coarse),
				Exact:   exact,
			}
			s.stats.IndirectEdgesCoarse += len(coarse)
			s.stats.IndirectEdgesRefined += len(refined)
			if exact {
				s.stats.ExactIndirectSites++
			} else {
				s.stats.EscapedIndirectSites++
			}
			for nr, set := range reaches {
				if reachesAny(set, coarse) {
					if s.meta.AllowedIndirectCoarse[nr] == nil {
						s.meta.AllowedIndirectCoarse[nr] = metadata.AddrSet{}
					}
					s.meta.AllowedIndirectCoarse[nr][addr] = true
				}
				if reachesAny(set, refined) {
					if s.meta.AllowedIndirect[nr] == nil {
						s.meta.AllowedIndirect[nr] = metadata.AddrSet{}
					}
					s.meta.AllowedIndirect[nr][addr] = true
				}
			}
		}
	}
	// A syscall constrained under the coarse policy stays constrained when
	// refinement empties its callsite set: a present-but-empty entry
	// rejects every indirect path, an absent one would unconstrain it.
	for nr, coarse := range s.meta.AllowedIndirectCoarse {
		if s.meta.AllowedIndirect[nr] == nil {
			s.meta.AllowedIndirect[nr] = metadata.AddrSet{}
		}
		s.stats.AllowedPairsCoarse += len(coarse)
		s.stats.AllowedPairsRefined += len(s.meta.AllowedIndirect[nr])
	}
	s.stats.IndirectEdgesRemoved = s.stats.IndirectEdgesCoarse - s.stats.IndirectEdgesRefined
	s.stats.AllowedPairsRemoved = s.stats.AllowedPairsCoarse - s.stats.AllowedPairsRefined
}

// reachesAny reports whether any function in targets is in the
// reachability set.
func reachesAny(set map[string]bool, targets map[string]bool) bool {
	for t := range targets {
		if set[t] {
			return true
		}
	}
	return false
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
