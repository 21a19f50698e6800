// Address-independent policy projections. Extracted and compiler-traced
// artifacts describe different binaries of the same program — the raw one
// and the instrumented one — so their address-keyed maps cannot be
// compared directly. A Projection reduces a metadata artifact to canonical
// per-context fact sets keyed by names, numbers, and positions only, which
// are invariant under instrumentation and relinking. The audit's
// precision/recall report and the soundness differential both compare
// projections.

package binscan

import (
	"fmt"
	"sort"

	"bastion/internal/core/metadata"
	"bastion/internal/kernel"
)

// Projection is the address-independent view of one policy artifact: one
// canonical fact-string set per context, plus the typed lookups the
// dynamic soundness checks use.
type Projection struct {
	// CT facts: "nr=<nr> <name> direct" / "nr=<nr> <name> indirect".
	CT map[string]bool
	// CF facts: "<callee> <- <caller>" and "indirect-target <fn>".
	CF map[string]bool
	// AI facts: "<caller> -> <wrapper> p<pos> = <const>". Only constant
	// bindings at syscall-wrapper callsites project: memory-backed
	// bindings are instrumentation-dependent and unreachable for a
	// binary-only extractor, so they are excluded from both sides to keep
	// precision/recall meaningful.
	AI map[string]bool
	// SF facts: "start <name>" and "<name> -> <name>".
	SF map[string]bool

	// Typed views for dynamic-tuple checks.
	CallTypes       map[uint32]metadata.CallType
	ValidCallers    map[string]metadata.NameSet
	IndirectTargets metadata.NameSet
	Flow            *metadata.FlowGraph
}

// Project reduces m to its address-independent projection.
func Project(m *metadata.Metadata) *Projection {
	p := &Projection{
		CT:              map[string]bool{},
		CF:              map[string]bool{},
		AI:              map[string]bool{},
		SF:              map[string]bool{},
		CallTypes:       map[uint32]metadata.CallType{},
		ValidCallers:    map[string]metadata.NameSet{},
		IndirectTargets: metadata.NameSet{},
		Flow:            m.SyscallFlow,
	}
	for nr, ct := range m.CallTypes {
		p.CallTypes[nr] = ct
		if ct.Direct {
			p.CT[fmt.Sprintf("nr=%d %s direct", nr, ct.Name)] = true
		}
		if ct.Indirect {
			p.CT[fmt.Sprintf("nr=%d %s indirect", nr, ct.Name)] = true
		}
	}
	for callee, callers := range m.ValidCallers {
		set := metadata.NameSet{}
		for caller := range callers {
			set[caller] = true
			p.CF[fmt.Sprintf("%s <- %s", callee, caller)] = true
		}
		p.ValidCallers[callee] = set
	}
	for fn := range m.IndirectTargets {
		p.IndirectTargets[fn] = true
		p.CF["indirect-target "+fn] = true
	}
	for _, site := range m.ArgSites {
		if !site.IsSyscall {
			continue
		}
		for _, spec := range site.Args {
			if spec.Kind != metadata.ArgConst {
				continue
			}
			p.AI[fmt.Sprintf("%s -> %s p%d = %d", site.Caller, site.Target, spec.Pos, spec.Const)] = true
		}
	}
	if g := m.SyscallFlow; !g.Empty() {
		for nr := range g.Start {
			p.SF["start "+kernel.Name(nr)] = true
		}
		for a, set := range g.Edges {
			for b := range set {
				p.SF[fmt.Sprintf("%s -> %s", kernel.Name(a), kernel.Name(b))] = true
			}
		}
	}
	return p
}

// Context names in canonical report order.
var Contexts = []string{"CT", "CF", "AI", "SF"}

// Facts returns the sorted fact strings of one context.
func (p *Projection) Facts(ctx string) []string {
	var set map[string]bool
	switch ctx {
	case "CT":
		set = p.CT
	case "CF":
		set = p.CF
	case "AI":
		set = p.AI
	case "SF":
		set = p.SF
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
