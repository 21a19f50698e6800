package monitor

import (
	"slices"

	"bastion/internal/core/metadata"
	"bastion/internal/kernel"
)

// SiteFacts is what a generation's tables answer for one return address.
type SiteFacts struct {
	Found              bool
	Kind               metadata.SiteKind
	Caller, Target     string
	CallerOK           bool
	HasArgs, IsSyscall bool
	Args               []metadata.ArgSpec
}

// FuncAt resolves addr to a function name through the tables.
func (g *Generation) FuncAt(addr uint64) string { return g.tables.names[g.tables.funcOf(addr)] }

// Site resolves a return address through the tables.
func (g *Generation) Site(ret uint64) SiteFacts {
	t := g.tables
	cs := t.site(ret)
	if cs == nil {
		return SiteFacts{}
	}
	return SiteFacts{Found: true, Kind: cs.kind, Caller: t.names[cs.caller], Target: t.names[cs.target],
		CallerOK: cs.callerOK, HasArgs: cs.hasArgs, IsSyscall: cs.isSyscall, Args: cs.args}
}

// IndirectAllowed answers whether the callsite returning to ret may start
// an indirect path to nr; ret must be a callsite.
func (g *Generation) IndirectAllowed(nr uint32, ret uint64) bool {
	return g.tables.indirectAllowed(nr, g.tables.site(ret))
}

// IsIndirectTarget answers IndirectTargets for a name the tables hold.
func (g *Generation) IsIndirectTarget(name string) bool {
	return g.tables.isIndirectTarget(uint16(slices.Index(g.tables.names, name)))
}

// CallType resolves nr's call type through the tables.
func (g *Generation) CallType(nr uint32) metadata.CallType {
	ct := g.tables.callTypeOf(nr)
	return metadata.CallType{Wrapper: g.tables.names[ct.wrapper], Direct: ct.direct, Indirect: ct.indirect}
}

// FlowStart and FlowEdge answer the projected syscall-flow graph.
func (g *Generation) FlowStart(nr uint32) bool { return g.sfStart&(1<<kernel.Slot(nr)) != 0 }

// FlowEdge reports whether prev → nr is a projected transition.
func (g *Generation) FlowEdge(prev, nr uint32) bool {
	return g.sfEdges[kernel.Slot(prev)]&(1<<kernel.Slot(nr)) != 0
}

// FlowEnforced reports whether the syscall-flow context is live: enabled,
// ModeFull, and backed by a non-empty projected graph.
func (m *Monitor) FlowEnforced() bool { return m.gen.sfEnforce }

// Offloaded returns the offloaded syscall numbers in ascending order.
func (p *OffloadPlan) Offloaded() []uint32 {
	nrs := make([]uint32, 0, len(p.Rules))
	for nr := range p.Rules {
		nrs = append(nrs, nr)
	}
	slices.Sort(nrs)
	return nrs
}

// ViolatedContexts returns the union of violated contexts recorded so far.
func (m *Monitor) ViolatedContexts() Context {
	var c Context
	for _, v := range m.Violations {
		c |= v.Context
	}
	return c
}
