package analysis

import (
	"strconv"
	"strings"
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/core/metadata"
	"bastion/internal/ir"
	"bastion/internal/kernel"
)

// findArg returns the ArgSpec for a 1-based position at the named caller's
// callsite of target, or nil.
func findArg(meta *metadata.Metadata, caller, target string, pos int) *metadata.ArgSpec {
	for _, site := range meta.ArgSites {
		if site.Caller != caller || site.Target != target {
			continue
		}
		for i := range site.Args {
			if site.Args[i].Pos == pos {
				return &site.Args[i]
			}
		}
	}
	return nil
}

// TestBranchJoinBindsMemNotStaleConst: a memory slot written differently on
// the two arms of a branch reaches the callsite as a load. The textually
// nearest store (the fallthrough arm's) must NOT be constant-folded into
// the policy — the trace classifies the value memory-backed, so the shadow
// table carries whichever arm actually executed.
func TestBranchJoinBindsMemNotStaleConst(t *testing.T) {
	p := guestlibc.NewProgram()

	f := ir.NewBuilder("picker", 1)
	f.Local("mode", 8)
	cond := f.LoadLocal("p0")
	f.BranchNZ(ir.R(cond), "other")
	f.Store(f.Lea("mode", 0), 0, ir.Imm(2), 8)
	f.Jump("done")
	f.Label("other")
	f.Store(f.Lea("mode", 0), 0, ir.Imm(10), 8)
	f.Label("done")
	mv := f.Load(f.Lea("mode", 0), 0, 8)
	f.Call("mprotect", ir.Imm(0), ir.Imm(4096), ir.R(mv))
	f.Ret(ir.Imm(0))
	p.AddFunc(f.Build())

	m := ir.NewBuilder("main", 0)
	m.Call("picker", ir.Imm(1))
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())

	res := runPass(t, p)
	spec := findArg(res.Meta, "picker", "mprotect", 3)
	if spec == nil {
		t.Fatal("mprotect p3 has no arg spec")
	}
	if spec.Kind != metadata.ArgMem {
		t.Fatalf("mprotect p3 = %+v, want memory-backed; a const here would pin "+
			"one branch arm's value as the only legal one", *spec)
	}
}

// TestSingleDefRegisterStillFoldsConst: the join guard must not cost the
// common case — a register value built from one reaching definition chain
// (Const → Mov → Bin fold) still binds as a compile-time constant.
func TestSingleDefRegisterStillFoldsConst(t *testing.T) {
	p := guestlibc.NewProgram()

	f := ir.NewBuilder("straight", 0)
	c := f.Const(3)
	r := f.Reg()
	f.Mov(r, ir.R(c))
	v := f.Bin(ir.OpOr, ir.R(r), ir.Imm(4)) // 3|4 = 7
	f.Call("mprotect", ir.Imm(0), ir.Imm(4096), ir.R(v))
	f.Ret(ir.Imm(0))
	p.AddFunc(f.Build())

	m := ir.NewBuilder("main", 0)
	m.Call("straight")
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())

	res := runPass(t, p)
	spec := findArg(res.Meta, "straight", "mprotect", 3)
	if spec == nil {
		t.Fatal("mprotect p3 has no arg spec")
	}
	if spec.Kind != metadata.ArgConst || spec.Const != 7 {
		t.Fatalf("mprotect p3 = %+v, want const 7", *spec)
	}
}

// paramChain builds w0(mprotect with p0 as the prot arg) called by w1,
// called by w2, ... up to wN, with main calling wN with a constant.
func paramChain(n int) *ir.Program {
	p := guestlibc.NewProgram()

	w0 := ir.NewBuilder("w0", 1)
	v := w0.LoadLocal("p0")
	w0.Call("mprotect", ir.Imm(0), ir.Imm(4096), ir.R(v))
	w0.Ret(ir.Imm(0))
	p.AddFunc(w0.Build())

	prev := "w0"
	for i := 1; i <= n; i++ {
		name := "w" + strconv.Itoa(i)
		b := ir.NewBuilder(name, 1)
		av := b.LoadLocal("p0")
		b.Call(prev, ir.R(av))
		b.Ret(ir.Imm(0))
		p.AddFunc(b.Build())
		prev = name
	}

	m := ir.NewBuilder("main", 0)
	m.Call(prev, ir.Imm(5))
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())
	return p
}

// TestDepthLimitTruncationCounted: when the inter-procedural parameter
// trace runs out of depth budget mid-chain, the truncation must surface in
// Stats.UntracedArgs — but only in the stats. No metadata.Untraced record
// is emitted (the spill slot is still shadowed, there is no callsite to
// point at), so audit allowlists keyed on untraced records stay stable.
func TestDepthLimitTruncationCounted(t *testing.T) {
	prog := paramChain(MaxUseDefDepth + 2)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Options{Sensitive: kernel.SensitiveSyscalls})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.UntracedArgs == 0 {
		t.Fatal("depth-limit truncation not counted in Stats.UntracedArgs")
	}
	for _, u := range res.Meta.Untraced {
		t.Errorf("truncation must be stats-only, found untraced record %+v", u)
	}

	// The longest chain inside the budget resolves end to end: no
	// truncation, and main's constant reaches the deepest callsite.
	deep, err := Run(paramChain(MaxUseDefDepth-1), Options{Sensitive: kernel.SensitiveSyscalls})
	if err != nil {
		t.Fatal(err)
	}
	if deep.Stats.UntracedArgs != 0 {
		t.Fatalf("full-depth trace still counts %d untraced args", deep.Stats.UntracedArgs)
	}
	found := false
	for _, site := range deep.Meta.ArgSites {
		if site.Caller == "main" && strings.HasPrefix(site.Target, "w") {
			found = true
		}
	}
	if !found {
		t.Fatal("full-depth trace never reached main's callsite")
	}
}
