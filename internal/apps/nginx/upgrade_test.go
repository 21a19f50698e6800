package nginx_test

import (
	"errors"
	"testing"

	"bastion/internal/apps/nginx"
	"bastion/internal/kernel"
	"bastion/internal/vm"
)

// TestMasterCycleIdleDoesNothing: with the upgrade flag clear, the master
// loop must not spawn anything.
func TestMasterCycleIdleDoesNotExec(t *testing.T) {
	prot := launch(t, false)
	if _, err := prot.Machine.CallFunction(nginx.FnInit, 1); err != nil {
		t.Fatal(err)
	}
	got, err := prot.Machine.CallFunction(nginx.FnMasterCycle)
	if err != nil {
		t.Fatalf("idle cycle: %v", err)
	}
	if got != 0 {
		t.Fatalf("idle cycle returned %d", got)
	}
	if prot.Proc.HasEvent(kernel.EventExec, "") {
		t.Fatal("idle master cycle executed something")
	}
}

// TestMasterCycleUpgradeLegitimate: the legitimate indirect path —
// master loop → ngx_spawn_process → (indirect) ngx_execute_proc → execve —
// must pass all three contexts. This is the regression guard for the
// AllowedIndirect ("expected partial trace") metadata: the spawn callsite
// is a legal indirect route to execve.
func TestMasterCycleUpgradeLegitimate(t *testing.T) {
	prot := launch(t, false)
	if _, err := prot.Machine.CallFunction(nginx.FnInit, 1); err != nil {
		t.Fatal(err)
	}
	// The admin legitimately requests the upgrade (guest code would set
	// this from a signal handler; the store value itself is not sensitive).
	g := prot.Machine.Prog.GlobalByName("upgrade_requested")
	if err := prot.Machine.Mem.WriteUint(g.Addr, 1, 8); err != nil {
		t.Fatal(err)
	}
	_, err := prot.Machine.CallFunction(nginx.FnMasterCycle)
	var xe *vm.ExitError
	if err != nil && !errors.As(err, &xe) {
		t.Fatalf("legit upgrade via spawn table failed: %v", err)
	}
	if !prot.Proc.HasEvent(kernel.EventExec, "/usr/sbin/nginx") {
		t.Fatalf("upgrade did not exec: %v", prot.Proc.Events)
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations on legit indirect exec: %v", prot.Monitor.Violations)
	}
}

// TestSpawnProcessIsIndirect sanity-checks the Jujutsu premise: the spawn
// table makes ngx_execute_proc a legitimate indirect target.
func TestSpawnProcessIsIndirect(t *testing.T) {
	prot := launch(t, false)
	meta := prot.Monitor.Generation().Meta
	if !meta.IndirectTargets[nginx.FnExecuteProc] {
		t.Fatal("ngx_execute_proc not address-taken in metadata")
	}
	allowed := meta.AllowedIndirect[kernel.SysExecve]
	if len(allowed) == 0 {
		t.Fatal("no indirect callsites allowed for execve")
	}
}
