package monitor

import (
	"bastion/internal/core/metadata"
	"bastion/internal/ir"
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
	return g.tables.indirectAllowed(g.Meta, nr, g.tables.site(ret), ret-ir.InstrSize)
}

// IsIndirectTarget answers IndirectTargets for a name the tables hold.
func (g *Generation) IsIndirectTarget(name string) bool {
	return g.tables.isIndirectTarget(g.tables.name(name))
}

// CallType resolves nr's call type through the tables.
func (g *Generation) CallType(nr uint32) metadata.CallType {
	ct := g.tables.callTypeOf(g.Meta, nr)
	return metadata.CallType{Wrapper: g.tables.names[ct.wrapper], Direct: ct.direct, Indirect: ct.indirect}
}

// FlowStart and FlowEdge answer the projected syscall-flow graph.
func (g *Generation) FlowStart(nr uint32) bool { return g.sfStart&(1<<kernel.Slot(nr)) != 0 }

// FlowEdge reports whether prev → nr is a projected transition.
func (g *Generation) FlowEdge(prev, nr uint32) bool {
	return g.sfEdges[kernel.Slot(prev)]&(1<<kernel.Slot(nr)) != 0
}
