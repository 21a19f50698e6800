package analysis

import (
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/ir"
	"bastion/internal/kernel"
)

// buildLinear constructs main -> setup(); serve() with
// setup = {mmap; mprotect} and serve = {socket}, the smallest program
// whose transition graph has a cross-function edge.
func buildLinear() *ir.Program {
	p := guestlibc.NewProgram()

	setup := ir.NewBuilder("do_setup", 0)
	setup.Call("mmap", ir.Imm(0), ir.Imm(4096), ir.Imm(3), ir.Imm(0x22), ir.Imm(-1), ir.Imm(0))
	setup.Call("mprotect", ir.Imm(0x7000), ir.Imm(4096), ir.Imm(1))
	setup.Ret(ir.Imm(0))
	p.AddFunc(setup.Build())

	serve := ir.NewBuilder("do_serve", 0)
	serve.Call("socket", ir.Imm(2), ir.Imm(1), ir.Imm(0))
	serve.Ret(ir.Imm(0))
	p.AddFunc(serve.Build())

	m := ir.NewBuilder("main", 0)
	m.Call("do_setup")
	m.Call("do_serve")
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())
	return p
}

// TestFlowGraphLinear checks the baseline derivation: start set, chain
// edges, nodes, and the absence of orderings the CFG cannot produce.
func TestFlowGraphLinear(t *testing.T) {
	res := runPass(t, buildLinear())
	g := res.Meta.SyscallFlow
	if g.Empty() {
		t.Fatal("derived graph is empty")
	}
	if !g.AllowsStart(kernel.SysMmap) {
		t.Errorf("start set %v should admit mmap", g.Start)
	}
	if g.AllowsStart(kernel.SysSocket) {
		t.Error("socket cannot open the process, yet start admits it")
	}
	wantEdges := [][2]uint32{
		{kernel.SysMmap, kernel.SysMprotect},
		{kernel.SysMprotect, kernel.SysSocket},
	}
	for _, e := range wantEdges {
		if !g.Allows(e[0], e[1]) {
			t.Errorf("missing edge %d->%d", e[0], e[1])
		}
	}
	for _, e := range [][2]uint32{
		{kernel.SysSocket, kernel.SysMmap},   // replaying setup after serve
		{kernel.SysMmap, kernel.SysSocket},   // skipping mprotect
		{kernel.SysMprotect, kernel.SysMmap}, // running setup backwards
		{kernel.SysSocket, kernel.SysSocket}, // serve is not a loop here
		{kernel.SysMprotect, kernel.SysMprotect},
	} {
		if g.Allows(e[0], e[1]) {
			t.Errorf("CFG-impossible edge %d->%d derived", e[0], e[1])
		}
	}
	if res.Stats.FlowNodes != len(g.Nodes) || res.Stats.FlowEdges != g.EdgeCount() || res.Stats.FlowStarts != len(g.Start) {
		t.Errorf("flow stats %d/%d/%d disagree with graph %d/%d/%d",
			res.Stats.FlowNodes, res.Stats.FlowEdges, res.Stats.FlowStarts,
			len(g.Nodes), g.EdgeCount(), len(g.Start))
	}
}

// TestFlowGraphLoopAndBranch checks back edges from loops, both arms of a
// branch, and composition through a syscall-free callee.
func buildLoopBranch() *ir.Program {
	p := guestlibc.NewProgram()

	noop := ir.NewBuilder("bookkeep", 0)
	noop.Ret(ir.Imm(0))
	p.AddFunc(noop.Build())

	m := ir.NewBuilder("main", 0)
	m.Local("i", 8)
	m.Call("mmap", ir.Imm(0), ir.Imm(4096), ir.Imm(3), ir.Imm(0x22), ir.Imm(-1), ir.Imm(0))
	m.Label("loop")
	m.Call("socket", ir.Imm(2), ir.Imm(1), ir.Imm(0))
	m.Call("bookkeep")
	iv := m.Load(m.Lea("i", 0), 0, 8)
	done := m.Bin(ir.OpEq, ir.R(iv), ir.Imm(1))
	m.BranchNZ(ir.R(done), "after")
	m.Store(m.Lea("i", 0), 0, ir.Imm(1), 8)
	m.Jump("loop")
	m.Label("after")
	// Branch: one arm emits mprotect, the other nothing.
	m.BranchNZ(ir.R(iv), "skip")
	m.Call("mprotect", ir.Imm(0x7000), ir.Imm(4096), ir.Imm(1))
	m.Label("skip")
	m.Call("exit_group", ir.Imm(0))
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())
	return p
}

func TestFlowGraphLoopAndBranch(t *testing.T) {
	g := runPass(t, buildLoopBranch()).Meta.SyscallFlow
	for _, e := range [][2]uint32{
		{kernel.SysMmap, kernel.SysSocket},      // entering the loop
		{kernel.SysSocket, kernel.SysSocket},    // back edge through bookkeep()
		{kernel.SysSocket, kernel.SysMprotect},  // exiting into the mprotect arm
		{kernel.SysSocket, kernel.SysExitGroup}, // exiting through the skip arm
		{kernel.SysMprotect, kernel.SysExitGroup},
	} {
		if !g.Allows(e[0], e[1]) {
			t.Errorf("missing edge %d->%d", e[0], e[1])
		}
	}
	if g.Allows(kernel.SysMmap, kernel.SysMprotect) {
		t.Error("mmap->mprotect derived, but the loop body always emits socket in between")
	}
	if g.Allows(kernel.SysMprotect, kernel.SysSocket) {
		t.Error("mprotect->socket derived, but mprotect happens after the loop")
	}
	if !g.AllowsStart(kernel.SysMmap) || g.AllowsStart(kernel.SysSocket) {
		t.Errorf("start set wrong: %v", g.Start)
	}
}

// TestFlowGraphIndirectCall checks that an indirect callsite composes the
// union of its points-to targets' summaries.
func TestFlowGraphIndirectCall(t *testing.T) {
	p := guestlibc.NewProgram()
	p.AddGlobal(&ir.Global{Name: "hook", Size: 8})

	ha := ir.NewBuilder("hook_socket", 0)
	ha.Call("socket", ir.Imm(2), ir.Imm(1), ir.Imm(0))
	ha.Ret(ir.Imm(0))
	p.AddFunc(ha.Build())

	hb := ir.NewBuilder("hook_chmod", 0)
	hb.Call("chmod", ir.Imm(0), ir.Imm(0o700))
	hb.Ret(ir.Imm(0))
	p.AddFunc(hb.Build())

	m := ir.NewBuilder("main", 0)
	m.Call("mmap", ir.Imm(0), ir.Imm(4096), ir.Imm(3), ir.Imm(0x22), ir.Imm(-1), ir.Imm(0))
	fa := m.FuncAddr("hook_socket")
	g := m.GlobalLea("hook", 0)
	m.Store(g, 0, ir.R(fa), 8)
	fb := m.FuncAddr("hook_chmod")
	m.Store(m.GlobalLea("hook", 0), 0, ir.R(fb), 8)
	tgt := m.Load(m.GlobalLea("hook", 0), 0, 8)
	m.CallInd(tgt, "i64()")
	m.Call("exit_group", ir.Imm(0))
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())

	flow := runPass(t, p).Meta.SyscallFlow
	if !flow.Allows(kernel.SysMmap, kernel.SysSocket) || !flow.Allows(kernel.SysMmap, kernel.SysChmod) {
		t.Errorf("indirect targets not composed: edges %v", flow.Edges)
	}
	if !flow.Allows(kernel.SysSocket, kernel.SysExitGroup) || !flow.Allows(kernel.SysChmod, kernel.SysExitGroup) {
		t.Errorf("post-indirect continuation missing: edges %v", flow.Edges)
	}
	if flow.Allows(kernel.SysSocket, kernel.SysChmod) || flow.Allows(kernel.SysChmod, kernel.SysSocket) {
		t.Error("one indirect dispatch cannot emit both targets in sequence")
	}
}

// TestFlowGraphNoEntry: a program with no entry function derives an empty
// graph, which must constrain nothing (pre-SF compatibility fallback).
func TestFlowGraphNoEntry(t *testing.T) {
	p := guestlibc.NewProgram()
	f := ir.NewBuilder("helper", 0)
	f.Call("socket", ir.Imm(2), ir.Imm(1), ir.Imm(0))
	f.Ret(ir.Imm(0))
	p.AddFunc(f.Build())
	p.Entry = ""

	res, err := Run(p, Options{Sensitive: kernel.SensitiveSyscalls})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	g := res.Meta.SyscallFlow
	if !g.Empty() {
		t.Errorf("entry-less program must derive the empty graph, got nodes %v", g.Nodes)
	}
	if !g.Allows(kernel.SysExecve, kernel.SysSetuid) || !g.AllowsStart(kernel.SysSocket) {
		t.Error("empty graph must constrain nothing")
	}
}

// TestFlowGraphRecursion: a self-recursive emitter must terminate and
// admit the repeat edge.
func TestFlowGraphRecursion(t *testing.T) {
	p := guestlibc.NewProgram()

	r := ir.NewBuilder("retry", 1)
	r.Call("socket", ir.Imm(2), ir.Imm(1), ir.Imm(0))
	n := r.LoadLocal("p0")
	r.BranchNZ(ir.R(n), "done")
	r.Call("retry", ir.Imm(1))
	r.Label("done")
	r.Ret(ir.Imm(0))
	p.AddFunc(r.Build())

	m := ir.NewBuilder("main", 0)
	m.Call("retry", ir.Imm(0))
	m.Call("exit_group", ir.Imm(0))
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())

	g := runPass(t, p).Meta.SyscallFlow
	if !g.Allows(kernel.SysSocket, kernel.SysSocket) {
		t.Error("recursive retry edge socket->socket missing")
	}
	if !g.Allows(kernel.SysSocket, kernel.SysExitGroup) {
		t.Error("return edge socket->exit_group missing")
	}
	if !g.AllowsStart(kernel.SysSocket) {
		t.Error("start must admit socket")
	}
}
