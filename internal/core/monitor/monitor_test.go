package monitor_test

import (
	"errors"
	"strings"
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/core"
	"bastion/internal/core/metadata"
	"bastion/internal/core/monitor"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/vm"
)

// buildVictim constructs a guest exercising the paper's patterns:
//
//	setup():            brk-backed heap object, gshm->size written by code
//	do_protect():       prot loaded from a local, mprotect(heap, 4096, prot)
//	do_exec():          execve("/bin/sh") with path built in a global buffer
//	handler_table:      global function-pointer slot, dispatched indirectly
//	dispatch():         indirect call through handler_table
//	helper():           legitimate indirect-call target
func buildVictim() *ir.Program {
	p := guestlibc.NewProgram()
	p.AddGlobal(&ir.Global{Name: "region", Size: 8})   // mmap'd region base
	p.AddGlobal(&ir.Global{Name: "pathbuf", Size: 32}) // execve path
	p.AddGlobal(&ir.Global{Name: "handler", Size: 8})  // function pointer

	// setup(): region = mmap(0, 8192, RW, ANON|PRIV, -1, 0); handler = &helper
	sb := ir.NewBuilder("setup", 0)
	addr := sb.Call("mmap", ir.Imm(0), ir.Imm(8192), ir.Imm(3), ir.Imm(0x22), ir.Imm(-1), ir.Imm(0))
	g := sb.GlobalLea("region", 0)
	sb.Store(g, 0, ir.R(addr), 8)
	h := sb.GlobalLea("handler", 0)
	fp := sb.FuncAddr("helper")
	sb.Store(h, 0, ir.R(fp), 8)
	sb.Ret(ir.Imm(0))
	p.AddFunc(sb.Build())

	// helper(): benign indirect-call target.
	hb := ir.NewBuilder("helper", 0)
	hb.Ret(ir.Imm(42))
	p.AddFunc(hb.Build())

	// dispatch(): calls through the handler pointer.
	db := ir.NewBuilder("dispatch", 0)
	hp := db.GlobalLea("handler", 0)
	target := db.Load(hp, 0, 8)
	r := db.CallInd(target, "i64()")
	db.Ret(ir.R(r))
	p.AddFunc(db.Build())

	// do_protect(): prot local = PROT_READ; mprotect(region, 4096, prot).
	pb := ir.NewBuilder("do_protect", 0)
	pb.Local("prot", 8)
	pa := pb.Lea("prot", 0)
	pb.Store(pa, 0, ir.Imm(1), 8)
	rg := pb.GlobalLea("region", 0)
	base := pb.Load(rg, 0, 8)
	pv := pb.Load(pb.Lea("prot", 0), 0, 8)
	res := pb.Call("mprotect", ir.R(base), ir.Imm(4096), ir.R(pv))
	pb.Ret(ir.R(res))
	p.AddFunc(pb.Build())

	// do_exec(): build "/bin/app\0" into pathbuf; execve(pathbuf, 0, 0).
	eb := ir.NewBuilder("do_exec", 0)
	pbuf := eb.GlobalLea("pathbuf", 0)
	path := "/bin/app"
	for i := 0; i < len(path); i++ {
		eb.Store(pbuf, int64(i), ir.Imm(int64(path[i])), 1)
	}
	eb.Store(pbuf, int64(len(path)), ir.Imm(0), 1)
	pbuf2 := eb.GlobalLea("pathbuf", 0)
	r2 := eb.Call("execve", ir.R(pbuf2), ir.Imm(0), ir.Imm(0))
	eb.Ret(ir.R(r2))
	p.AddFunc(eb.Build())

	// main's CFG covers every order the tests drive top-level — repeated
	// do_protect, re-running setup, and do_exec either fresh or after a
	// protect — so the derived syscall-flow graph admits them. All the
	// guard branches are false at runtime: the executed path is still
	// setup, dispatch, one do_protect.
	mb := ir.NewBuilder("main", 0)
	mb.Local("i", 8)
	mb.StoreLocal("i", ir.Imm(1))
	iv := mb.LoadLocal("i")
	execFirst := mb.Bin(ir.OpEq, ir.R(iv), ir.Imm(2))
	mb.BranchNZ(ir.R(execFirst), "exec_only")
	mb.Label("round")
	mb.Call("setup")
	mb.Call("dispatch")
	mb.Label("protect_loop")
	mb.Call("do_protect")
	iv2 := mb.LoadLocal("i")
	more := mb.Bin(ir.OpEq, ir.R(iv2), ir.Imm(2))
	mb.BranchNZ(ir.R(more), "protect_loop")
	iv3 := mb.LoadLocal("i")
	again := mb.Bin(ir.OpEq, ir.R(iv3), ir.Imm(3))
	mb.BranchNZ(ir.R(again), "round")
	ex := mb.Bin(ir.OpEq, ir.R(iv3), ir.Imm(4))
	mb.BranchNZ(ir.R(ex), "exec_only")
	mb.Ret(ir.Imm(0))
	mb.Label("exec_only")
	mb.Call("do_exec")
	mb.Ret(ir.Imm(0))
	p.AddFunc(mb.Build())
	return p
}

func launch(tb testing.TB, cfg monitor.Config) *core.Protected {
	tb.Helper()
	art, err := core.Compile(buildVictim(), core.CompileOptions{})
	if err != nil {
		tb.Fatalf("Compile: %v", err)
	}
	k := kernel.New(nil)
	if err := k.FS.WriteFile("/bin/app", []byte("x"), 0o5); err != nil {
		tb.Fatal(err)
	}
	prot, err := core.Launch(art, k, cfg, vm.WithMaxSteps(1<<22))
	if err != nil {
		tb.Fatalf("Launch: %v", err)
	}
	return prot
}

func TestLegitimateRunPasses(t *testing.T) {
	prot := launch(t, monitor.DefaultConfig())
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatalf("protected run failed: %v", err)
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations on legit run: %v", prot.Monitor.Violations)
	}
	// mmap and mprotect each trapped once.
	if prot.Monitor.ChecksByNr.Of(kernel.SysMmap) != 1 || prot.Monitor.ChecksByNr.Of(kernel.SysMprotect) != 1 {
		t.Fatalf("checks = %v", prot.Monitor.ChecksByNr)
	}
	if prot.Proc.TrapCount != prot.Monitor.Hooks {
		t.Fatalf("trap/hook mismatch: %d vs %d", prot.Proc.TrapCount, prot.Monitor.Hooks)
	}
	if prot.Monitor.InitCycles == 0 {
		t.Fatal("no init cost recorded")
	}
}

func TestNotCallableSyscallKilledBySeccomp(t *testing.T) {
	prot := launch(t, monitor.DefaultConfig())
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatal(err)
	}
	// setuid is never referenced by the program: the call-type filter must
	// kill any attempt (here driven directly through the wrapper).
	_, err := prot.Machine.CallFunction("setuid", 0)
	var ke *vm.KillError
	if !errors.As(err, &ke) || ke.By != "seccomp" {
		t.Fatalf("err = %v, want seccomp kill", err)
	}
}

func TestIndirectInvocationOfDirectOnlySyscall(t *testing.T) {
	prot := launch(t, monitor.DefaultConfig())
	if _, err := prot.Machine.CallFunction("setup"); err != nil {
		t.Fatal(err)
	}
	// NEWTON/Listing-2 style: corrupt the handler pointer to the mprotect
	// wrapper and let the legit indirect callsite fire it.
	wrapper := prot.Machine.Prog.Func("mprotect")
	g := prot.Machine.Prog.GlobalByName("handler")
	if err := prot.Machine.Mem.WriteUint(g.Addr, wrapper.Base, 8); err != nil {
		t.Fatal(err)
	}
	_, err := prot.Machine.CallFunction("dispatch")
	var ke *vm.KillError
	if !errors.As(err, &ke) || ke.By != "monitor" {
		t.Fatalf("err = %v, want monitor kill", err)
	}
	if got := prot.Monitor.ViolatedContexts(); got&monitor.CallType == 0 {
		t.Fatalf("violated = %v, want call-type", got)
	}
	if !strings.Contains(prot.Monitor.Violations[0].Reason, "indirect invocation not permitted") {
		t.Fatalf("reason = %q", prot.Monitor.Violations[0].Reason)
	}
}

func TestReturnAddressHijackFlagsControlFlow(t *testing.T) {
	cfg := monitor.DefaultConfig()
	cfg.ReportOnly = true
	prot := launch(t, cfg)
	if _, err := prot.Machine.CallFunction("setup"); err != nil {
		t.Fatal(err)
	}
	// Corrupt do_protect's own return address (the frame above the wrapper)
	// to a non-callsite address before the syscall fires.
	if err := prot.Machine.HookFunc("do_protect", 1, func(m *vm.Machine) error {
		main := m.Prog.Func("main")
		return m.Mem.WriteUint(m.RBP()+8, main.Base, 8) // main entry: not a return site
	}); err != nil {
		t.Fatal(err)
	}
	// The hijacked return loops back into main; a small step budget ends
	// the run after the mprotect trap has fired.
	prot.Machine.MaxSteps = 1 << 15
	if _, err := prot.Machine.CallFunction("do_protect"); err != nil {
		t.Logf("run ended: %v", err)
	}
	got := prot.Monitor.ViolatedContexts()
	if got&monitor.ControlFlow == 0 {
		t.Fatalf("violated = %v, want control-flow; violations: %v", got, prot.Monitor.Violations)
	}
	if got&monitor.CallType != 0 {
		t.Fatalf("call-type should not flag (innermost callsite is legit): %v", prot.Monitor.Violations)
	}
}

func TestArgCorruptionFlagsArgIntegrity(t *testing.T) {
	cfg := monitor.DefaultConfig()
	cfg.ReportOnly = true
	prot := launch(t, cfg)
	if _, err := prot.Machine.CallFunction("setup"); err != nil {
		t.Fatal(err)
	}
	// Corrupt the wrapper's spilled prot argument at wrapper entry: the
	// value reaches the syscall registers but bypasses instrumentation.
	if err := prot.Machine.HookFunc("mprotect", 0, func(m *vm.Machine) error {
		addr, err := m.SlotAddr("p2")
		if err != nil {
			return err
		}
		return m.Mem.WriteUint(addr, 7, 8) // PROT_RWX
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction("do_protect"); err != nil {
		t.Fatal(err)
	}
	got := prot.Monitor.ViolatedContexts()
	if got&monitor.ArgIntegrity == 0 {
		t.Fatalf("violated = %v, want argument-integrity; %v", got, prot.Monitor.Violations)
	}
	if got&(monitor.CallType|monitor.ControlFlow) != 0 {
		t.Fatalf("only AI should flag: %v", prot.Monitor.Violations)
	}
}

func TestExtendedArgPointeeCorruption(t *testing.T) {
	cfg := monitor.DefaultConfig()
	cfg.ReportOnly = true
	prot := launch(t, cfg)
	// Corrupt one byte of the execve path right before the syscall: shadow
	// byte entries disagree with memory.
	if err := prot.Machine.HookFunc("execve", 0, func(m *vm.Machine) error {
		g := m.Prog.GlobalByName("pathbuf")
		return m.Mem.WriteUint(g.Addr+1, 't', 1) // "/tin/app"
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction("do_exec"); err != nil {
		t.Logf("run ended: %v", err)
	}
	got := prot.Monitor.ViolatedContexts()
	if got&monitor.ArgIntegrity == 0 {
		t.Fatalf("violated = %v, want argument-integrity; %v", got, prot.Monitor.Violations)
	}
}

func TestExtendedArgPointerDiversion(t *testing.T) {
	cfg := monitor.DefaultConfig()
	cfg.ReportOnly = true
	prot := launch(t, cfg)
	// Divert the execve pathname pointer itself (wrapper's p0 spill slot)
	// to an attacker string placed on the heap.
	if err := prot.Machine.HookFunc("execve", 0, func(m *vm.Machine) error {
		if err := m.Mem.Map(ir.HeapBase, 4096, 0b011); err != nil {
			return err
		}
		if err := m.Mem.Write(ir.HeapBase, append([]byte("/bin/sh"), 0)); err != nil {
			return err
		}
		addr, err := m.SlotAddr("p0")
		if err != nil {
			return err
		}
		return m.Mem.WriteUint(addr, ir.HeapBase, 8)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction("do_exec"); err != nil {
		t.Logf("run ended: %v", err)
	}
	got := prot.Monitor.ViolatedContexts()
	if got&monitor.ArgIntegrity == 0 {
		t.Fatalf("violated = %v, want argument-integrity; %v", got, prot.Monitor.Violations)
	}
	if !strings.Contains(prot.Monitor.Violations[0].Reason, "pointer") {
		t.Fatalf("reason = %q", prot.Monitor.Violations[0].Reason)
	}
}

func TestLegitExecvePasses(t *testing.T) {
	prot := launch(t, monitor.DefaultConfig())
	_, err := prot.Machine.CallFunction("do_exec")
	var xe *vm.ExitError
	if err != nil && !errors.As(err, &xe) {
		t.Fatalf("legit execve failed: %v", err)
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations: %v", prot.Monitor.Violations)
	}
	if !prot.Proc.HasEvent(kernel.EventExec, "/bin/app") {
		t.Fatal("execve did not reach the kernel")
	}
}

func TestModesCostOrdering(t *testing.T) {
	run := func(mode monitor.Mode) uint64 {
		cfg := monitor.DefaultConfig()
		cfg.Mode = mode
		prot := launch(t, cfg)
		start := prot.Kernel.Clock.Cycles
		if _, err := prot.Machine.CallFunction("main"); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		return prot.Kernel.Clock.Cycles - start
	}
	hook := run(monitor.ModeHookOnly)
	fetch := run(monitor.ModeFetchOnly)
	full := run(monitor.ModeFull)
	if !(hook < fetch && fetch < full) {
		t.Fatalf("cost ordering broken: hook=%d fetch=%d full=%d", hook, fetch, full)
	}
}

func TestContextSubsets(t *testing.T) {
	for _, ctx := range []monitor.Context{monitor.CallType, monitor.ControlFlow, monitor.ArgIntegrity, monitor.SyscallFlow, monitor.AllContexts} {
		cfg := monitor.DefaultConfig()
		cfg.Contexts = ctx
		prot := launch(t, cfg)
		if _, err := prot.Machine.CallFunction("main"); err != nil {
			t.Fatalf("contexts %v: %v", ctx, err)
		}
		if len(prot.Monitor.Violations) != 0 {
			t.Fatalf("contexts %v: violations %v", ctx, prot.Monitor.Violations)
		}
	}
}

func TestExtendFSTrapsFileSyscalls(t *testing.T) {
	// Build a victim that also reads a file, then compare hook counts.
	p := guestlibc.NewProgram()
	b := ir.NewBuilder("main", 0)
	b.Local("path", 16)
	pa := b.Lea("path", 0)
	for i, c := range []byte("/etc/x") {
		b.Store(pa, int64(i), ir.Imm(int64(c)), 1)
	}
	b.Store(pa, 6, ir.Imm(0), 1)
	pa2 := b.Lea("path", 0)
	fd := b.Call("open", ir.R(pa2), ir.Imm(0), ir.Imm(0))
	b.Local("buf", 32)
	buf := b.Lea("buf", 0)
	b.Call("read", ir.R(fd), ir.R(buf), ir.Imm(32))
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())

	art, err := core.Compile(p, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(nil)
	k.FS.WriteFile("/etc/x", []byte("data"), 0o4)
	cfg := monitor.DefaultConfig()
	cfg.ExtendFS = true
	prot, err := core.Launch(art, k, cfg, vm.WithMaxSteps(1<<22))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	if prot.Monitor.ChecksByNr.Of(kernel.SysOpen) != 1 || prot.Monitor.ChecksByNr.Of(kernel.SysRead) != 1 {
		t.Fatalf("fs syscalls not trapped: %v", prot.Monitor.ChecksByNr)
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations: %v", prot.Monitor.Violations)
	}
}

func TestUnprotectedBaselineRuns(t *testing.T) {
	art, err := core.Compile(buildVictim(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(nil)
	prot, err := core.LaunchUnprotected(art, k, vm.WithMaxSteps(1<<22))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatalf("unprotected run: %v", err)
	}
	if prot.Proc.TrapCount != 0 {
		t.Fatal("unprotected process trapped")
	}
}

func TestContextStringRendering(t *testing.T) {
	if monitor.AllContexts.String() != "call-type+control-flow+argument-integrity+syscall-flow" {
		t.Fatalf("AllContexts = %q", monitor.AllContexts.String())
	}
	if monitor.SyscallFlow.String() != "syscall-flow" {
		t.Fatalf("SyscallFlow = %q", monitor.SyscallFlow.String())
	}
	if got := (monitor.CallType | monitor.SyscallFlow).String(); got != "call-type+syscall-flow" {
		t.Fatalf("CT|SF = %q", got)
	}
	if monitor.Context(0).String() != "none" {
		t.Fatal("zero context string")
	}
}

// TestParseContexts: every subset of ct,cf,ai,sf, in every order and in
// either case, parses to its mask; "all" is AllContexts; a list enabling
// nothing and an unknown token are rejected.
func TestParseContexts(t *testing.T) {
	toks := []string{"ct", "cf", "ai", "sf"}
	ctxs := []monitor.Context{monitor.CallType, monitor.ControlFlow, monitor.ArgIntegrity, monitor.SyscallFlow}
	var permute func(list []string, k int, visit func([]string))
	permute = func(list []string, k int, visit func([]string)) {
		if k == len(list) {
			visit(list)
			return
		}
		for i := k; i < len(list); i++ {
			list[k], list[i] = list[i], list[k]
			permute(list, k+1, visit)
			list[k], list[i] = list[i], list[k]
		}
	}
	for set := 1; set < 1<<len(toks); set++ {
		var sub []string
		var want monitor.Context
		for i := range toks {
			if set&(1<<i) != 0 {
				sub = append(sub, toks[i])
				want |= ctxs[i]
			}
		}
		permute(sub, 0, func(order []string) {
			for _, in := range []string{strings.Join(order, ","), strings.ToUpper(strings.Join(order, ", "))} {
				if got, err := monitor.ParseContexts(in); err != nil || got != want {
					t.Errorf("ParseContexts(%q) = %v, %v; want %v", in, got, err, want)
				}
			}
		})
	}
	for _, in := range []string{"all", "ALL", " All "} {
		if got, err := monitor.ParseContexts(in); err != nil || got != monitor.AllContexts {
			t.Errorf("ParseContexts(%q) = %v, %v; want all", in, got, err)
		}
	}
	for _, in := range []string{"", " ", ",", "ct,xx", "none", "all,ct"} {
		if got, err := monitor.ParseContexts(in); err == nil {
			t.Errorf("ParseContexts(%q) = %v, want an error", in, got)
		}
	}
}

func TestMonitorReport(t *testing.T) {
	prot := launch(t, monitor.DefaultConfig())
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatal(err)
	}
	rep := prot.Monitor.Report()
	for _, want := range []string{"contexts=call-type+control-flow+argument-integrity+syscall-flow", "mode=full", "mmap", "mprotect", "no violations"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestModeStringRendering(t *testing.T) {
	for mode, want := range map[monitor.Mode]string{
		monitor.ModeFull:      "full",
		monitor.ModeFetchOnly: "fetch-only",
		monitor.ModeHookOnly:  "hook-only",
		monitor.Mode(42):      "mode(42)",
	} {
		if got := mode.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(mode), got, want)
		}
	}
}

// TestTreeFilterEnforcesIdentically runs the legitimate workload and a
// seccomp-killed syscall under the binary-search filter: same hooks, same
// verdicts as the linear chain.
func TestTreeFilterEnforcesIdentically(t *testing.T) {
	cfg := monitor.DefaultConfig()
	cfg.TreeFilter = true
	prot := launch(t, cfg)
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatalf("protected run failed: %v", err)
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations on legit run: %v", prot.Monitor.Violations)
	}
	if prot.Monitor.ChecksByNr.Of(kernel.SysMmap) != 1 || prot.Monitor.ChecksByNr.Of(kernel.SysMprotect) != 1 {
		t.Fatalf("checks = %v", prot.Monitor.ChecksByNr)
	}
	_, err := prot.Machine.CallFunction("setuid", 0)
	var ke *vm.KillError
	if !errors.As(err, &ke) || ke.By != "seccomp" {
		t.Fatalf("err = %v, want seccomp kill", err)
	}
}

// TestTreeFilterCheaperPerHook pins the tentpole claim at the monitor
// level: with the FS extension (the largest protected set), the tree
// filter executes strictly fewer BPF instructions for the same workload.
func TestTreeFilterCheaperPerHook(t *testing.T) {
	run := func(tree bool) (steps, syscalls uint64) {
		cfg := monitor.DefaultConfig()
		cfg.ExtendFS = true
		cfg.TreeFilter = tree
		prot := launch(t, cfg)
		if _, err := prot.Machine.CallFunction("main"); err != nil {
			t.Fatal(err)
		}
		for _, n := range prot.Proc.SyscallCounts {
			syscalls += n
		}
		return prot.Proc.FilterSteps, syscalls
	}
	linSteps, linCalls := run(false)
	treeSteps, treeCalls := run(true)
	if linCalls != treeCalls {
		t.Fatalf("workloads diverged: %d vs %d syscalls", linCalls, treeCalls)
	}
	if treeSteps >= linSteps {
		t.Fatalf("tree filter executed %d BPF insns, linear %d: expected strictly fewer", treeSteps, linSteps)
	}
}

// TestAttachRejectsMalformedArgPositions ensures a bad metadata sidecar
// fails loudly at attach time instead of comparing against Arg()'s zero.
func TestAttachRejectsMalformedArgPositions(t *testing.T) {
	art, err := core.Compile(buildVictim(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for addr, site := range art.Meta.ArgSites {
		site.Args = append(site.Args, metadata.ArgSpec{Pos: 9, Kind: metadata.ArgConst})
		art.Meta.ArgSites[addr] = site
		break
	}
	k := kernel.New(nil)
	if _, err := core.Launch(art, k, monitor.DefaultConfig(), vm.WithMaxSteps(1<<22)); err == nil {
		t.Fatal("malformed arg position accepted at attach")
	} else if !strings.Contains(err.Error(), "1..6") {
		t.Fatalf("unexpected error: %v", err)
	}
}
