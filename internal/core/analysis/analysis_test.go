package analysis

import (
	"strconv"
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/core/metadata"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/vm"
)

// buildFigure2 reproduces the paper's Figure 2 shape:
//
//	foo() { flags = 0x21; bar(1, 2, flags) }
//	bar(b0,b1,b2) { prots = 3; mmap(NULL, gshm->size, prots, b2, -1, 0) }
//
// gshm is a global pointer to a heap object whose field at +8 is the size.
func buildFigure2() *ir.Program {
	p := guestlibc.NewProgram()
	p.AddGlobal(&ir.Global{Name: "gshm", Size: 8})

	bar := ir.NewBuilder("bar", 3)
	bar.Local("prots", 8)
	prots := bar.Lea("prots", 0)
	bar.Store(prots, 0, ir.Imm(3), 8) // PROT_READ|PROT_WRITE
	g := bar.GlobalLea("gshm", 0)
	ptr := bar.Load(g, 0, 8)
	size := bar.Load(ptr, 8, 8) // gshm->size
	protsv := bar.Load(bar.Lea("prots", 0), 0, 8)
	b2 := bar.LoadLocal("p2")
	bar.Call("mmap", ir.Imm(0), ir.R(size), ir.R(protsv), ir.R(b2), ir.Imm(-1), ir.Imm(0))
	bar.Ret(ir.Imm(0))
	p.AddFunc(bar.Build())

	foo := ir.NewBuilder("foo", 0)
	foo.Local("flags", 8)
	fl := foo.Lea("flags", 0)
	foo.Store(fl, 0, ir.Imm(0x21), 8) // MAP_ANONYMOUS|MAP_SHARED
	flv := foo.Load(foo.Lea("flags", 0), 0, 8)
	foo.Call("bar", ir.Imm(1), ir.Imm(2), ir.R(flv))
	foo.Ret(ir.Imm(0))
	p.AddFunc(foo.Build())

	m := ir.NewBuilder("main", 0)
	m.Call("foo")
	// Indirectly call getpid through a function pointer so call-type
	// analysis sees an address-taken wrapper.
	fp := m.FuncAddr("getpid")
	m.CallInd(fp, "i64()")
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())
	return p
}

func runPass(t *testing.T, p *ir.Program) *Result {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("pre-pass Validate: %v", err)
	}
	res, err := Run(p, Options{Sensitive: kernel.SensitiveSyscalls})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.Prog.Validate(); err != nil {
		t.Fatalf("post-pass Validate: %v", err)
	}
	return res
}

func TestCallTypeClassification(t *testing.T) {
	res := runPass(t, buildFigure2())
	meta := res.Meta

	mmap := meta.CallTypes[kernel.SysMmap]
	if !mmap.Direct || mmap.Indirect {
		t.Fatalf("mmap call type = %+v, want direct only", mmap)
	}
	if mmap.Name != "mmap" || mmap.Wrapper != "mmap" {
		t.Fatalf("mmap names = %+v", mmap)
	}
	getpid := meta.CallTypes[kernel.SysGetpid]
	if !getpid.Indirect {
		t.Fatalf("getpid call type = %+v, want indirect", getpid)
	}
	if !meta.IndirectTargets["getpid"] {
		t.Fatal("getpid missing from IndirectTargets")
	}
	// execve is never referenced: not-callable.
	if _, ok := meta.CallTypes[kernel.SysExecve]; ok {
		t.Fatal("execve should be not-callable (absent)")
	}
}

func TestCFGValidCallers(t *testing.T) {
	res := runPass(t, buildFigure2())
	meta := res.Meta

	cases := []struct{ callee, caller string }{
		{"mmap", "bar"},
		{"bar", "foo"},
		{"foo", "main"},
	}
	for _, c := range cases {
		constrained, allowed := meta.CallerAllowed(c.callee, c.caller)
		if !constrained || !allowed {
			t.Errorf("CallerAllowed(%s, %s) = %v,%v", c.callee, c.caller, constrained, allowed)
		}
	}
	if _, allowed := meta.CallerAllowed("mmap", "main"); allowed {
		t.Error("main must not be a valid direct caller of mmap")
	}
	// strlen is not on a sensitive path: unconstrained.
	if constrained, _ := meta.CallerAllowed("strlen", "anything"); constrained {
		t.Error("strlen should be unconstrained")
	}
}

func TestArgSitesFigure2(t *testing.T) {
	res := runPass(t, buildFigure2())
	meta := res.Meta

	// Locate the mmap callsite's arg record.
	var mmapSite, barSite *metadata.ArgSite
	for addr := range meta.ArgSites {
		s := meta.ArgSites[addr]
		switch s.Target {
		case "mmap":
			mmapSite = &s
		case "bar":
			barSite = &s
		}
	}
	if mmapSite == nil {
		t.Fatal("no ArgSite for mmap callsite")
	}
	if !mmapSite.IsSyscall || mmapSite.SyscallNr != kernel.SysMmap || mmapSite.Caller != "bar" {
		t.Fatalf("mmap site = %+v", mmapSite)
	}
	want := map[int]metadata.ArgKind{
		1: metadata.ArgConst, // NULL
		2: metadata.ArgMem,   // gshm->size
		3: metadata.ArgMem,   // prots
		4: metadata.ArgMem,   // b2 (param)
		5: metadata.ArgConst, // -1
		6: metadata.ArgConst, // 0
	}
	if len(mmapSite.Args) != len(want) {
		t.Fatalf("mmap args = %+v", mmapSite.Args)
	}
	for _, a := range mmapSite.Args {
		if want[a.Pos] != a.Kind {
			t.Errorf("arg %d kind = %v, want %v", a.Pos, a.Kind, want[a.Pos])
		}
	}
	// Constants carry their values.
	for _, a := range mmapSite.Args {
		if a.Pos == 5 && a.Const != -1 {
			t.Errorf("arg 5 const = %d", a.Const)
		}
	}

	// The intermediate bar() callsite binds flags at position 3.
	if barSite == nil {
		t.Fatal("no ArgSite for bar callsite (inter-procedural trace missing)")
	}
	if barSite.IsSyscall || barSite.Caller != "foo" {
		t.Fatalf("bar site = %+v", barSite)
	}
	if len(barSite.Args) != 1 || barSite.Args[0].Pos != 3 || barSite.Args[0].Kind != metadata.ArgMem {
		t.Fatalf("bar site args = %+v", barSite.Args)
	}
}

func TestInstrumentationStats(t *testing.T) {
	res := runPass(t, buildFigure2())
	s := res.Stats
	if s.CtxBindConst != 3 { // NULL, -1, 0
		t.Errorf("CtxBindConst = %d, want 3", s.CtxBindConst)
	}
	if s.CtxBindMem != 4 { // size, prots, b2, flags@bar-callsite
		t.Errorf("CtxBindMem = %d, want 4", s.CtxBindMem)
	}
	// ctx_write_mem: store to prots, store to flags, bar entry spill of p2.
	if s.CtxWriteMem != 3 {
		t.Errorf("CtxWriteMem = %d, want 3", s.CtxWriteMem)
	}
	if s.SensitiveCallsites != 1 {
		t.Errorf("SensitiveCallsites = %d, want 1", s.SensitiveCallsites)
	}
	if s.SensitiveIndirect != 0 {
		t.Errorf("SensitiveIndirect = %d", s.SensitiveIndirect)
	}
	if s.Total() != s.CtxWriteMem+s.CtxBindMem+s.CtxBindConst {
		t.Error("Total() inconsistent")
	}
	if s.DirectCallsites == 0 || s.IndirectCallsites != 1 {
		t.Errorf("callsite counts = %+v", s)
	}
}

func TestCallsitesKeyedByReturnAddress(t *testing.T) {
	res := runPass(t, buildFigure2())
	meta := res.Meta
	bar := res.Prog.Func("bar")
	// Find the mmap call in instrumented bar and check its record.
	for i := range bar.Code {
		in := &bar.Code[i]
		if in.Kind == ir.Call && in.Sym == "mmap" {
			ret := bar.InstrAddr(i + 1)
			cs, ok := meta.Callsites[ret]
			if !ok {
				t.Fatalf("no callsite keyed by retaddr %#x", ret)
			}
			if cs.Target != "mmap" || cs.Caller != "bar" || cs.Kind != metadata.SiteDirect {
				t.Fatalf("callsite = %+v", cs)
			}
			if cs.Addr != bar.InstrAddr(i) {
				t.Fatalf("callsite addr %#x, want %#x", cs.Addr, bar.InstrAddr(i))
			}
			return
		}
	}
	t.Fatal("mmap call not found in instrumented bar")
}

func TestBindSitesPointAtCallsites(t *testing.T) {
	res := runPass(t, buildFigure2())
	bar := res.Prog.Func("bar")
	for i := range bar.Code {
		in := &bar.Code[i]
		if in.Kind != ir.Intrinsic || (in.IK != ir.CtxBindMem && in.IK != ir.CtxBindConst) {
			continue
		}
		site := bar.Code[in.BindSite]
		if site.Kind != ir.Call {
			t.Fatalf("bind at %d references instruction %d kind %v, want Call",
				i, in.BindSite, site.Kind)
		}
	}
}

// recordingOS captures syscall register snapshots.
type recordingOS struct{ calls []vm.Regs }

func (r *recordingOS) Syscall(m *vm.Machine) (int64, error) {
	r.calls = append(r.calls, m.SysRegs)
	return 4096, nil
}

// TestBehaviorPreserved runs the program before and after instrumentation
// and checks the observable syscall sequence is identical.
func TestBehaviorPreserved(t *testing.T) {
	run := func(p *ir.Program, instrumented bool) []vm.Regs {
		if instrumented {
			if _, err := Run(p, Options{Sensitive: kernel.SensitiveSyscalls}); err != nil {
				t.Fatalf("pass: %v", err)
			}
		}
		if err := p.Link(); err != nil {
			t.Fatal(err)
		}
		os := &recordingOS{}
		m, err := vm.New(p, vm.WithOS(os), vm.WithMaxSteps(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		// Materialize the gshm object: pointer at global, struct on "heap".
		heap := uint64(ir.HeapBase)
		if err := m.Mem.Map(heap, 4096, 0b011); err != nil {
			t.Fatal(err)
		}
		if err := m.Mem.WriteUint(heap+8, 16384, 8); err != nil { // size field
			t.Fatal(err)
		}
		g := p.GlobalByName("gshm")
		if err := m.Mem.WriteUint(g.Addr, heap, 8); err != nil {
			t.Fatal(err)
		}
		if _, err := m.CallFunction("main"); err != nil {
			t.Fatalf("run: %v", err)
		}
		return os.calls
	}

	plain := run(buildFigure2(), false)
	inst := run(buildFigure2(), true)
	if len(plain) != len(inst) {
		t.Fatalf("syscall counts differ: %d vs %d", len(plain), len(inst))
	}
	for i := range plain {
		a, b := plain[i], inst[i]
		if a.RAX != b.RAX || a.RDI != b.RDI || a.RSI != b.RSI || a.RDX != b.RDX ||
			a.R10 != b.R10 || a.R8 != b.R8 || a.R9 != b.R9 {
			t.Fatalf("syscall %d differs:\nplain %+v\ninst  %+v", i, a, b)
		}
	}
	// Sanity: the mmap actually carried the expected values.
	last := inst[len(inst)-1]
	if last.RAX == kernel.SysGetpid {
		// The final call is the indirect getpid; mmap precedes it.
		last = inst[len(inst)-2]
	}
	if last.RAX != kernel.SysMmap || last.RSI != 16384 || last.RDX != 3 || last.R10 != 0x21 {
		t.Fatalf("mmap regs = %+v", last)
	}
}

func TestUntracedArgCounted(t *testing.T) {
	p := guestlibc.NewProgram()
	b := ir.NewBuilder("main", 0)
	// An argument computed from a syscall result is not statically
	// traceable: count it, do not bind it.
	pid := b.Call("getpid")
	v := b.Bin(ir.OpAdd, ir.R(pid), ir.Imm(1))
	b.Call("setuid", ir.R(v))
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())

	res := runPass(t, p)
	if res.Stats.UntracedArgs == 0 {
		t.Fatal("untraced argument not counted")
	}
	// The setuid site exists with no bound args.
	var found bool
	for _, s := range res.Meta.ArgSites {
		if s.Target == "setuid" {
			found = true
			if len(s.Args) != 0 {
				t.Fatalf("setuid args = %+v", s.Args)
			}
		}
	}
	if !found {
		t.Fatal("setuid arg site missing")
	}
}

func TestMetadataSerializationRoundTrip(t *testing.T) {
	res := runPass(t, buildFigure2())
	data, err := res.Meta.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := metadata.Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(back.Callsites) != len(res.Meta.Callsites) ||
		len(back.CallTypes) != len(res.Meta.CallTypes) ||
		len(back.ArgSites) != len(res.Meta.ArgSites) {
		t.Fatal("round trip lost entries")
	}
	if fi := back.Funcs["bar"]; fi.Entry != res.Prog.Func("bar").Base || fi != res.Meta.Funcs["bar"] {
		t.Fatalf("bar's range after round trip = %+v", fi)
	}
	if res.Meta.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestDerefParamWrites checks the memcpy-into-sensitive-buffer pattern:
// stores through a pointer parameter into a sensitive buffer get shadowed.
func TestDerefParamWrites(t *testing.T) {
	p := guestlibc.NewProgram()

	// setter(dst): *dst = 7
	setter := ir.NewBuilder("setter", 1)
	d := setter.LoadLocal("p0")
	setter.Store(d, 0, ir.Imm(7), 8)
	setter.Ret(ir.Imm(0))
	p.AddFunc(setter.Build())

	// main: local uid; setter(&uid); setuid(uid)
	b := ir.NewBuilder("main", 0)
	b.Local("uid", 8)
	addr := b.Lea("uid", 0)
	b.Call("setter", ir.R(addr))
	uv := b.Load(b.Lea("uid", 0), 0, 8)
	b.Call("setuid", ir.R(uv))
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())

	res := runPass(t, p)
	// The store inside setter must be instrumented.
	setterF := res.Prog.Func("setter")
	var sawWrite bool
	for i := range setterF.Code {
		if setterF.Code[i].Kind == ir.Intrinsic && setterF.Code[i].IK == ir.CtxWriteMem {
			sawWrite = true
		}
	}
	if !sawWrite {
		t.Fatal("store through pointer parameter not shadowed")
	}
}

// TestMaxUseDefDepthBounds: a parameter chain deeper than MaxUseDefDepth
// stops being traced instead of recursing forever; the argument is
// counted as untraced-by-depth rather than mis-bound.
func TestMaxUseDefDepthBounds(t *testing.T) {
	p := guestlibc.NewProgram()
	// A pass-through chain five hops deeper than the bound:
	// c<n-1> -> ... -> c0 -> setuid(v).
	const n = MaxUseDefDepth + 5
	prev := ""
	for i := 0; i < n; i++ {
		name := "c" + strconv.Itoa(i)
		b := ir.NewBuilder(name, 1)
		v := b.LoadLocal("p0")
		if i == 0 {
			b.Call("setuid", ir.R(v))
		} else {
			b.Call(prev, ir.R(v))
		}
		b.Ret(ir.Imm(0))
		p.AddFunc(b.Build())
		prev = name
	}
	mb := ir.NewBuilder("main", 0)
	mb.Local("uid", 8)
	ua := mb.Lea("uid", 0)
	mb.Store(ua, 0, ir.Imm(33), 8)
	uv := mb.Load(mb.Lea("uid", 0), 0, 8)
	mb.Call(prev, ir.R(uv))
	mb.Ret(ir.Imm(0))
	p.AddFunc(mb.Build())

	res, err := Run(p, Options{Sensitive: kernel.SensitiveSyscalls})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The chain is traced through at most the first few hops: intermediate
	// arg sites exist for the near callsites but not all n.
	sites := 0
	for _, s := range res.Meta.ArgSites {
		if !s.IsSyscall {
			sites++
		}
	}
	if sites == 0 {
		t.Fatal("no intermediate sites traced at all")
	}
	if sites >= n {
		t.Fatalf("depth bound ignored: %d intermediate sites", sites)
	}
	// And the instrumented program still runs.
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
