package binscan

import (
	"bytes"
	"reflect"
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/core/analysis"
	"bastion/internal/core/metadata"
	"bastion/internal/ir"
	"bastion/internal/kernel"
)

// buildDemo is the Figure 2 shape plus an indirect getpid call: enough
// surface to exercise CT (direct + indirect), CF (a three-deep sensitive
// path), AI (constants, a heap load, a parameter), and SF.
func buildDemo() *ir.Program {
	p := guestlibc.NewProgram()
	p.AddGlobal(&ir.Global{Name: "gshm", Size: 8})

	bar := ir.NewBuilder("bar", 3)
	bar.Local("prots", 8)
	prots := bar.Lea("prots", 0)
	bar.Store(prots, 0, ir.Imm(3), 8)
	g := bar.GlobalLea("gshm", 0)
	ptr := bar.Load(g, 0, 8)
	size := bar.Load(ptr, 8, 8)
	protsv := bar.Load(bar.Lea("prots", 0), 0, 8)
	b2 := bar.LoadLocal("p2")
	bar.Call("mmap", ir.Imm(0), ir.R(size), ir.R(protsv), ir.R(b2), ir.Imm(-1), ir.Imm(0))
	bar.Ret(ir.Imm(0))
	p.AddFunc(bar.Build())

	foo := ir.NewBuilder("foo", 0)
	foo.Local("flags", 8)
	fl := foo.Lea("flags", 0)
	foo.Store(fl, 0, ir.Imm(0x21), 8)
	flv := foo.Load(foo.Lea("flags", 0), 0, 8)
	foo.Call("bar", ir.Imm(1), ir.Imm(2), ir.R(flv))
	foo.Ret(ir.Imm(0))
	p.AddFunc(foo.Build())

	m := ir.NewBuilder("main", 0)
	m.Call("foo")
	fp := m.FuncAddr("getpid")
	m.CallInd(fp, "i64()")
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())
	return p
}

func extract(t *testing.T, p *ir.Program) *Result {
	t.Helper()
	res, err := Extract(p)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	return res
}

// argConst returns the recovered constant for (caller→target, pos), or
// (0, false).
func argConst(meta *metadata.Metadata, caller, target string, pos int) (int64, bool) {
	for _, site := range meta.ArgSites {
		if site.Caller != caller || site.Target != target {
			continue
		}
		for _, spec := range site.Args {
			if spec.Pos == pos && spec.Kind == metadata.ArgConst {
				return spec.Const, true
			}
		}
	}
	return 0, false
}

// untracedReason returns the reason recorded for (caller→target, pos).
func untracedReason(meta *metadata.Metadata, caller, target string, pos int) string {
	for _, u := range meta.Untraced {
		if u.Caller == caller && u.Target == target && u.Pos == pos {
			return u.Reason
		}
	}
	return ""
}

func TestExtractCallTypes(t *testing.T) {
	res := extract(t, buildDemo())
	meta := res.Meta

	mmap := meta.CallTypes[9]
	if !mmap.Direct || mmap.Indirect || mmap.Wrapper != "mmap" || mmap.Name != "mmap" {
		t.Fatalf("mmap call type = %+v, want direct only", mmap)
	}
	getpid := meta.CallTypes[39]
	if !getpid.Indirect {
		t.Fatalf("getpid call type = %+v, want indirect", getpid)
	}
	if !meta.IndirectTargets["getpid"] {
		t.Fatal("getpid missing from IndirectTargets")
	}
	if _, ok := meta.CallTypes[59]; ok {
		t.Fatal("execve should be not-callable (absent)")
	}
	if res.Stats.Wrappers == 0 || res.Stats.SensitiveWrappers == 0 {
		t.Fatalf("wrapper discovery stats empty: %+v", res.Stats)
	}
}

func TestExtractValidCallersMatchCompiler(t *testing.T) {
	traced, err := analysis.Run(buildDemo(), analysis.Options{Sensitive: kernel.SensitiveSyscalls})
	if err != nil {
		t.Fatalf("analysis.Run: %v", err)
	}
	ext := extract(t, buildDemo())

	// The direct call graph is fully visible to the extractor, so the
	// callee→caller relations must be identical to ground truth.
	if !reflect.DeepEqual(ext.Meta.ValidCallers, traced.Meta.ValidCallers) {
		t.Fatalf("ValidCallers diverge:\nextracted: %v\ntraced:    %v",
			ext.Meta.ValidCallers, traced.Meta.ValidCallers)
	}
}

func TestExtractConstArgs(t *testing.T) {
	res := extract(t, buildDemo())
	meta := res.Meta

	wants := map[int]int64{1: 0, 3: 3, 4: 0x21, 5: -1, 6: 0}
	for pos, want := range wants {
		got, ok := argConst(meta, "bar", "mmap", pos)
		if !ok || got != want {
			t.Errorf("mmap p%d = %d,%v want %d", pos, got, ok, want)
		}
	}
	// p2 loads through a heap pointer: unresolvable, and honestly so.
	if _, ok := argConst(meta, "bar", "mmap", 2); ok {
		t.Error("mmap p2 bound despite heap indirection")
	}
	if r := untracedReason(meta, "bar", "mmap", 2); r != ReasonValueOrigin {
		t.Errorf("mmap p2 reason = %q, want %q", r, ReasonValueOrigin)
	}
}

// TestEveryDirectSensitiveCallsiteHasArgSite: the monitor treats a
// sensitive callsite without an ArgSite record as a violation, so the
// extracted artifact must emit one even when nothing resolves.
func TestEveryDirectSensitiveCallsiteHasArgSite(t *testing.T) {
	res := extract(t, buildDemo())
	prog := buildDemo()
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := prog.Link(); err != nil {
		t.Fatal(err)
	}
	sensitive := map[uint32]bool{}
	for _, nr := range kernel.SensitiveSyscalls {
		sensitive[nr] = true
	}
	for _, f := range prog.Funcs {
		for i := range f.Code {
			in := &f.Code[i]
			if in.Kind != ir.Call {
				continue
			}
			nr, ok := ir.SyscallNumber(prog.Func(in.Sym))
			if !ok || !sensitive[uint32(nr)] {
				continue
			}
			site, ok := res.Meta.ArgSites[f.InstrAddr(i)]
			if !ok || !site.IsSyscall || site.SyscallNr != uint32(nr) {
				t.Errorf("sensitive callsite %s:%d (%s) missing ArgSite: %+v", f.Name, i, in.Sym, site)
			}
		}
	}
}

func TestJoinDivergentProducesTop(t *testing.T) {
	p := guestlibc.NewProgram()
	p.AddGlobal(&ir.Global{Name: "mode", Size: 8})
	m := ir.NewBuilder("main", 0)
	m.Local("dom", 8)
	cond := m.Load(m.GlobalLea("mode", 0), 0, 8)
	m.StoreLocal("dom", ir.Imm(2))
	m.BranchNZ(ir.R(cond), "after")
	m.StoreLocal("dom", ir.Imm(10))
	m.Label("after")
	dom := m.LoadLocal("dom")
	m.Call("socket", ir.R(dom), ir.Imm(1), ir.Imm(0))
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())

	res := extract(t, p)
	if v, ok := argConst(res.Meta, "main", "socket", 1); ok {
		t.Fatalf("divergent join bound stale constant %d", v)
	}
	if r := untracedReason(res.Meta, "main", "socket", 1); r != ReasonJoinDivergent {
		t.Fatalf("reason = %q, want %q", r, ReasonJoinDivergent)
	}
	// The non-divergent positions still bind.
	if v, ok := argConst(res.Meta, "main", "socket", 2); !ok || v != 1 {
		t.Fatalf("socket p2 = %d,%v want 1", v, ok)
	}
}

func TestStraightLineStoreBinds(t *testing.T) {
	p := guestlibc.NewProgram()
	m := ir.NewBuilder("main", 0)
	m.Local("dom", 8)
	m.StoreLocal("dom", ir.Imm(2))
	dom := m.LoadLocal("dom")
	m.Call("socket", ir.R(dom), ir.Imm(1), ir.Imm(0))
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())

	res := extract(t, p)
	if v, ok := argConst(res.Meta, "main", "socket", 1); !ok || v != 2 {
		t.Fatalf("socket p1 = %d,%v want 2", v, ok)
	}
}

func TestParamConstThroughSingleCaller(t *testing.T) {
	p := guestlibc.NewProgram()
	h := ir.NewBuilder("helper", 1)
	fd := h.LoadLocal("p0")
	h.Call("listen", ir.R(fd), ir.Imm(4))
	h.Ret(ir.Imm(0))
	p.AddFunc(h.Build())
	m := ir.NewBuilder("main", 0)
	m.Call("helper", ir.Imm(5))
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())

	res := extract(t, p)
	if v, ok := argConst(res.Meta, "helper", "listen", 1); !ok || v != 5 {
		t.Fatalf("listen p1 = %d,%v want 5 (through caller)", v, ok)
	}
}

func TestParamJoinAcrossCallersDiverges(t *testing.T) {
	p := guestlibc.NewProgram()
	h := ir.NewBuilder("helper", 1)
	fd := h.LoadLocal("p0")
	h.Call("listen", ir.R(fd), ir.Imm(4))
	h.Ret(ir.Imm(0))
	p.AddFunc(h.Build())
	m := ir.NewBuilder("main", 0)
	m.Call("helper", ir.Imm(5))
	m.Call("helper", ir.Imm(6))
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())

	res := extract(t, p)
	if v, ok := argConst(res.Meta, "helper", "listen", 1); ok {
		t.Fatalf("divergent callers bound %d", v)
	}
	if r := untracedReason(res.Meta, "helper", "listen", 1); r != ReasonJoinDivergent {
		t.Fatalf("reason = %q, want %q", r, ReasonJoinDivergent)
	}
}

func TestAddressTakenParamIsTop(t *testing.T) {
	p := guestlibc.NewProgram()
	h := ir.NewBuilder("helper", 1)
	h.SetTypeSig("i64(i64)")
	fd := h.LoadLocal("p0")
	h.Call("listen", ir.R(fd), ir.Imm(4))
	h.Ret(ir.Imm(0))
	p.AddFunc(h.Build())
	m := ir.NewBuilder("main", 0)
	m.Call("helper", ir.Imm(5))
	fp := m.FuncAddr("helper")
	m.CallInd(fp, "i64(i64)", ir.Imm(7))
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())

	res := extract(t, p)
	if v, ok := argConst(res.Meta, "helper", "listen", 1); ok {
		t.Fatalf("address-taken helper bound %d", v)
	}
	if r := untracedReason(res.Meta, "helper", "listen", 1); r != ReasonIndirectCaller {
		t.Fatalf("reason = %q, want %q", r, ReasonIndirectCaller)
	}
}

func TestCallerlessParamIsTop(t *testing.T) {
	p := guestlibc.NewProgram()
	h := ir.NewBuilder("orphan", 1)
	fd := h.LoadLocal("p0")
	h.Call("listen", ir.R(fd), ir.Imm(4))
	h.Ret(ir.Imm(0))
	p.AddFunc(h.Build())
	m := ir.NewBuilder("main", 0)
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())

	res := extract(t, p)
	if r := untracedReason(res.Meta, "orphan", "listen", 1); r != ReasonNoStaticCaller {
		t.Fatalf("reason = %q, want %q", r, ReasonNoStaticCaller)
	}
}

// TestEscapedSlotIsTop: once a local's address is passed to a callee, a
// store visible in the caller no longer determines the loaded value — the
// callee may have overwritten the cell.
func TestEscapedSlotIsTop(t *testing.T) {
	p := guestlibc.NewProgram()
	sc := ir.NewBuilder("scribble", 1)
	ptr := sc.LoadLocal("p0")
	sc.Store(ptr, 0, ir.Imm(99), 8)
	sc.Ret(ir.Imm(0))
	p.AddFunc(sc.Build())
	m := ir.NewBuilder("main", 0)
	m.Local("uid", 8)
	m.StoreLocal("uid", ir.Imm(1))
	addr := m.Lea("uid", 0)
	m.Call("scribble", ir.R(addr))
	uid := m.LoadLocal("uid")
	m.Call("setuid", ir.R(uid))
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())

	res := extract(t, p)
	if v, ok := argConst(res.Meta, "main", "setuid", 1); ok {
		t.Fatalf("escaped slot bound stale constant %d", v)
	}
	if r := untracedReason(res.Meta, "main", "setuid", 1); r != ReasonAddrEscape {
		t.Fatalf("reason = %q, want %q", r, ReasonAddrEscape)
	}
}

func TestExtractedSFSupersetOfTraced(t *testing.T) {
	traced, err := analysis.Run(buildDemo(), analysis.Options{Sensitive: kernel.SensitiveSyscalls})
	if err != nil {
		t.Fatalf("analysis.Run: %v", err)
	}
	ext := extract(t, buildDemo())
	extProj, tracedProj := Project(ext.Meta), Project(traced.Meta)
	if ok, missing := extProj.Covers(tracedProj, "SF"); !ok {
		t.Fatalf("extracted SF graph misses traced transitions: %v", missing)
	}
	// CT must agree exactly: both sides see the same references.
	if !reflect.DeepEqual(extProj.CT, tracedProj.CT) {
		t.Fatalf("CT projections diverge:\nextracted: %v\ntraced: %v", extProj.CT, tracedProj.CT)
	}
}

// TestInstrumentationInvariance: extraction must not care whether it is
// handed the raw binary or the instrumented one — projections are
// address-independent and intrinsics are invisible to the dataflow.
func TestInstrumentationInvariance(t *testing.T) {
	extRaw := extract(t, buildDemo())
	traced, err := analysis.Run(buildDemo(), analysis.Options{Sensitive: kernel.SensitiveSyscalls})
	if err != nil {
		t.Fatalf("analysis.Run: %v", err)
	}
	extIns, err := Extract(traced.Prog)
	if err != nil {
		t.Fatalf("Extract(instrumented): %v", err)
	}
	pr, pi := Project(extRaw.Meta), Project(extIns.Meta)
	for _, ctx := range Contexts {
		if !reflect.DeepEqual(pr.factSet(ctx), pi.factSet(ctx)) {
			t.Errorf("%s projection differs raw vs instrumented:\nraw: %v\ninstrumented: %v",
				ctx, pr.Facts(ctx), pi.Facts(ctx))
		}
	}
}

func TestExtractionDeterminism(t *testing.T) {
	a := extract(t, buildDemo())
	b := extract(t, buildDemo())
	ja, err := a.Meta.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Meta.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatal("extracted metadata not byte-identical across runs")
	}
	if !reflect.DeepEqual(a.Facts, b.Facts) {
		t.Fatal("extraction facts not deterministic")
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestExtractedMetadataRoundTrips(t *testing.T) {
	res := extract(t, buildDemo())
	data, err := res.Meta.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := metadata.Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal of extracted artifact: %v", err)
	}
	if !reflect.DeepEqual(Project(back).CT, Project(res.Meta).CT) {
		t.Fatal("round-tripped artifact projects differently")
	}
}
