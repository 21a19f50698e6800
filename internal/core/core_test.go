package core_test

import (
	"fmt"
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

func minimalProgram() *ir.Program {
	p := guestlibc.NewProgram()
	b := ir.NewBuilder("main", 0)
	b.Call("getpid")
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())
	return p
}

func TestCompileRejectsInvalidProgram(t *testing.T) {
	p := ir.NewProgram() // no main
	_, err := core.Compile(p, core.CompileOptions{})
	if err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileCustomSensitiveSet(t *testing.T) {
	// Protect only getpid: the artifact's metadata should constrain it.
	p := minimalProgram()
	art, err := core.Compile(p, core.CompileOptions{Sensitive: []uint32{kernel.SysGetpid}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := art.Meta.ValidCallers["getpid"]; !ok {
		t.Fatal("custom sensitive set not honored")
	}
	if art.Stats.SensitiveCallsites != 1 {
		t.Fatalf("sensitive callsites = %d", art.Stats.SensitiveCallsites)
	}
}

func TestLaunchAndRunPipeline(t *testing.T) {
	art, err := core.Compile(minimalProgram(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(nil)
	prot, err := core.Launch(art, k, monitor.DefaultConfig(), vm.WithMaxSteps(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	if prot.Monitor == nil || prot.Proc == nil || prot.Kernel != k {
		t.Fatal("pipeline wiring incomplete")
	}
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	// getpid is non-sensitive: no traps expected under the default set.
	if prot.Proc.TrapCount != 0 {
		t.Fatalf("traps = %d", prot.Proc.TrapCount)
	}
}

func TestTwoProcessesOneKernel(t *testing.T) {
	// The kernel hosts several guests; each gets its own process object
	// and address space but shares the filesystem and clock.
	k := kernel.New(nil)
	var prots []*core.Protected
	for i := 0; i < 2; i++ {
		art, err := core.Compile(minimalProgram(), core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		prot, err := core.Launch(art, k, monitor.DefaultConfig(), vm.WithMaxSteps(1<<16))
		if err != nil {
			t.Fatal(err)
		}
		prots = append(prots, prot)
	}
	if prots[0].Proc.PID == prots[1].Proc.PID {
		t.Fatal("duplicate PIDs")
	}
	for _, prot := range prots {
		if _, err := prot.Machine.CallFunction("main"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnprotectedHasNoMonitor(t *testing.T) {
	art, err := core.Compile(minimalProgram(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := core.LaunchUnprotected(art, kernel.New(nil), vm.WithMaxSteps(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	if prot.Monitor != nil {
		t.Fatal("unexpected monitor")
	}
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatal(err)
	}
}

// TestDefenseLaunch: a defense attaches the monitor exactly when its
// Monitor.Contexts is nonzero, installs CET before CFI, and launches a
// coarse defense on the CoarseIndirect projection, under a generation of
// its own, without touching the artifact.
func TestDefenseLaunch(t *testing.T) {
	art, err := core.Compile(minimalProgram(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		d           core.Defense
		mitigations string
		monitored   bool
	}{
		{core.Defense{Name: "none"}, "", false},
		{core.Defense{Name: "zero mask", Monitor: core.Enforcing(0)}, "", false},
		{core.Defense{Name: "cet+cfi", CET: true, CFI: true}, "*cet.ShadowStack *llvmcfi.CFI", false},
		{core.Defense{Name: "ct", CET: true, Monitor: core.Enforcing(monitor.CallType)}, "*cet.ShadowStack", true},
	} {
		prot, err := tc.d.Launch(art, kernel.New(nil), vm.WithMaxSteps(1<<16))
		if err != nil {
			t.Fatalf("%s: %v", tc.d, err)
		}
		var names []string
		for _, m := range prot.Machine.Mitigations {
			names = append(names, fmt.Sprintf("%T", m))
		}
		if got := strings.Join(names, " "); got != tc.mitigations {
			t.Errorf("%s: mitigations %q, want %q", tc.d, got, tc.mitigations)
		}
		if (prot.Monitor != nil) != tc.monitored || tc.d.Monitored() != tc.monitored {
			t.Fatalf("%s: monitor attached %v, Monitored %v, want %v", tc.d, prot.Monitor != nil, tc.d.Monitored(), tc.monitored)
		}
		if tc.monitored && prot.Monitor.Cfg.Contexts != tc.d.Monitor.Contexts {
			t.Errorf("%s: monitor enforces %v, want %v", tc.d, prot.Monitor.Cfg.Contexts, tc.d.Monitor.Contexts)
		}
		if _, err := prot.Machine.CallFunction("main"); err != nil {
			t.Fatalf("%s: %v", tc.d, err)
		}
	}

	// A coarse policy that differs from the refined one in one marked
	// entry, on a copy of the metadata. The defense carries a generation
	// precompiled for the refined metadata, as bench.Run's does: the coarse
	// launch must compile its own instead of failing on the mismatch.
	meta := *art.Meta
	meta.AllowedIndirectCoarse = metadata.NrAddrSets{kernel.SysGetpid: {0xc0a45e: true}}
	marked := &core.Artifact{Prog: art.Prog, Meta: &meta}
	for _, coarse := range []bool{false, true} {
		d := core.Defense{Name: "bastion", Coarse: coarse, Monitor: core.Enforcing(monitor.AllContexts)}
		if d.Monitor.Generation, err = monitor.NewGeneration(0, marked.Meta, d.Monitor); err != nil {
			t.Fatal(err)
		}
		prot, err := d.Launch(marked, kernel.New(nil))
		if err != nil {
			t.Fatal(err)
		}
		if installed := prot.Monitor.Generation() == d.Monitor.Generation; installed == coarse {
			t.Errorf("coarse %v: precompiled generation installed = %v", coarse, installed)
		}
		if got := prot.Monitor.Generation().Meta.AllowedIndirect[kernel.SysGetpid][0xc0a45e]; got != coarse {
			t.Errorf("coarse %v: monitor enforces the marked coarse entry: %v", coarse, got)
		}
		if marked.Meta != &meta || meta.AllowedIndirect[kernel.SysGetpid][0xc0a45e] {
			t.Fatalf("coarse %v: Launch changed the artifact's metadata", coarse)
		}
	}
}
