package analysis

import (
	"reflect"
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/ir"
	"bastion/internal/kernel"
)

// buildTwoSetuidWrappers adds a second setuid wrapper, my_setuid, beside
// guestlibc's setuid, and reaches only my_setuid through an indirect call
// to drop_priv.
func buildTwoSetuidWrappers() *ir.Program {
	p := guestlibc.NewProgram()

	w := ir.NewBuilder("my_setuid", 1)
	r := w.Syscall(kernel.SysSetuid, ir.R(w.LoadLocal("p0")))
	w.Ret(ir.R(r))
	p.AddFunc(w.Build())

	h := ir.NewBuilder("drop_priv", 0)
	h.Call("my_setuid", ir.Imm(0))
	h.Ret(ir.Imm(0))
	p.AddFunc(h.Build())

	m := ir.NewBuilder("main", 0)
	m.Call("setuid", ir.Imm(0))
	m.CallInd(m.FuncAddr("drop_priv"), "i64()")
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())
	return p
}

// TestStructureUnionsWrappersOfOneSyscall: every wrapper of a sensitive
// syscall feeds its AllowedIndirect set, so an indirect callsite that
// reaches only one of two setuid wrappers may still start a setuid path.
func TestStructureUnionsWrappersOfOneSyscall(t *testing.T) {
	meta := runPass(t, buildTwoSetuidWrappers()).Meta
	if len(meta.IndirectSites) != 1 {
		t.Fatalf("%d indirect sites, want 1", len(meta.IndirectSites))
	}
	for addr := range meta.IndirectSites {
		if !meta.AllowedIndirect[kernel.SysSetuid][addr] {
			t.Errorf("refined setuid policy %v misses the drop_priv site %#x", meta.AllowedIndirect[kernel.SysSetuid], addr)
		}
		if !meta.AllowedIndirectCoarse[kernel.SysSetuid][addr] {
			t.Errorf("coarse setuid policy %v misses the drop_priv site %#x", meta.AllowedIndirectCoarse[kernel.SysSetuid], addr)
		}
	}
	if !meta.ValidCallers["my_setuid"]["drop_priv"] || !meta.ValidCallers["setuid"]["main"] {
		t.Errorf("ValidCallers = %v, want both setuid wrappers' callers", meta.ValidCallers)
	}
}

// TestStructureNilRefinementStaysCoarse: without a refinement every
// indirect site keeps its coarse frontier, inexact, and the refined policy
// equals the coarse one.
func TestStructureNilRefinementStaysCoarse(t *testing.T) {
	p := buildTwoSetuidWrappers()
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	sensitive := map[uint32]bool{}
	for _, nr := range kernel.SensitiveSyscalls {
		sensitive[nr] = true
	}
	meta, st := Structure(p, sensitive, nil)
	for addr, site := range meta.IndirectSites {
		if site.Exact || !reflect.DeepEqual(site.Targets, site.Coarse) {
			t.Errorf("site %#x = %+v, want inexact with targets == coarse", addr, site)
		}
	}
	if !reflect.DeepEqual(meta.AllowedIndirect, meta.AllowedIndirectCoarse) {
		t.Errorf("AllowedIndirect %v != AllowedIndirectCoarse %v", meta.AllowedIndirect, meta.AllowedIndirectCoarse)
	}
	if st.ExactIndirectSites != 0 || st.IndirectEdgesRemoved != 0 || st.AllowedPairsRemoved != 0 {
		t.Errorf("stats %+v report a refinement that never ran", st)
	}
}
