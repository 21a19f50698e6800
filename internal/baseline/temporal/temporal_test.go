package temporal_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"bastion/internal/apps/nginx"
	"bastion/internal/baseline/temporal"
	"bastion/internal/core"
	"bastion/internal/kernel"
	"bastion/internal/kernel/fs"
	"bastion/internal/vm"
)

// profileNginx derives the two phase profiles by dynamic profiling, as the
// temporal-specialization papers do: run init, snapshot, run a request and
// the (legitimate) upgrade path, and diff.
func profileNginx(t *testing.T) (initP, servingP temporal.Profile) {
	t.Helper()
	prot := launchNginx(t)
	if _, err := prot.Machine.CallFunction(nginx.FnInit, 2); err != nil {
		t.Fatal(err)
	}
	initP = temporal.NewProfile()
	initP.Observe(&prot.Proc.SyscallCounts)

	// Derive the serving profile on a clean instance: everything invoked
	// after init by a request plus the legitimate upgrade path.
	prot2 := launchNginx(t)
	lfd, err := prot2.Machine.CallFunction(nginx.FnInit, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := prot2.Proc.SyscallCounts
	conn2, err := prot2.Kernel.Net.Dial(nginx.Port)
	if err != nil {
		t.Fatal(err)
	}
	conn2.ClientWrite([]byte("GET /index.html HTTP/1.1\r\n\r\n"))
	if _, err := prot2.Machine.CallFunction(nginx.FnHandleRequest, lfd); err != nil {
		t.Fatal(err)
	}
	// The binary-upgrade path is serving-phase functionality: profiling
	// must include it or the feature breaks (§12's crux).
	g := prot2.Machine.Prog.GlobalByName("upgrade_requested")
	prot2.Machine.Mem.WriteUint(g.Addr, 1, 8)
	var xe *vm.ExitError
	if _, err := prot2.Machine.CallFunction(nginx.FnMasterCycle); err != nil && !errors.As(err, &xe) {
		t.Fatal(err)
	}
	servingP = temporal.NewProfile()
	for s, n := range prot2.Proc.SyscallCounts[:kernel.NrSlots] {
		if n > base[s] {
			servingP[kernel.SlotNr(s)] = true
		}
	}
	return initP, servingP
}

func launchNginx(t *testing.T) *core.Protected {
	t.Helper()
	art, err := core.Compile(nginx.Build(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(nil)
	page := bytes.Repeat([]byte("x"), 6745)
	k.FS.WriteFile("/srv/index.html", page, fs.ModeRead)
	k.FS.WriteFile("/usr/sbin/nginx", []byte{0x7f}, fs.ModeRead|fs.ModeExec)
	k.FS.WriteFile("/bin/sh", []byte{0x7f}, fs.ModeRead|fs.ModeExec)
	up := k.Net.NewSocket()
	k.Net.Bind(up, nginx.UpstreamPort)
	k.Net.Listen(up, 1024)
	prot, err := core.LaunchUnprotected(art, k, vm.WithMaxSteps(1<<26))
	if err != nil {
		t.Fatal(err)
	}
	return prot
}

// TestServingPhaseStillServes: the tightened allowlist keeps the
// application functional.
func TestServingPhaseStillServes(t *testing.T) {
	initP, servingP := profileNginx(t)
	prot := launchNginx(t)
	f := temporal.New(initP, servingP)
	if err := f.Install(prot.Proc); err != nil {
		t.Fatal(err)
	}
	lfd, err := prot.Machine.CallFunction(nginx.FnInit, 2)
	if err != nil {
		t.Fatalf("init under init-phase allowlist: %v", err)
	}
	if err := f.EnterServingPhase(prot.Proc); err != nil {
		t.Fatal(err)
	}
	conn, err := prot.Kernel.Net.Dial(nginx.Port)
	if err != nil {
		t.Fatal(err)
	}
	conn.ClientWrite([]byte("GET /index.html HTTP/1.1\r\n\r\n"))
	n, err := prot.Machine.CallFunction(nginx.FnHandleRequest, lfd)
	if err != nil {
		t.Fatalf("request under serving allowlist: %v", err)
	}
	if n != 6745 {
		t.Fatalf("served %d bytes", n)
	}
	if f.Phase != "serving" {
		t.Fatalf("phase = %q", f.Phase)
	}
}

// TestTemporalFilterMissesServingPhaseAttacks reproduces §12's argument:
// the AOCR-2/Jujutsu-style attack execs through functionality that the
// serving phase legitimately needs, so the temporal allowlist permits it.
func TestTemporalFilterMissesServingPhaseAttacks(t *testing.T) {
	initP, servingP := profileNginx(t)
	if !servingP[kernel.SysExecve] {
		t.Fatal("profiling lost the upgrade execve; the comparison is moot")
	}
	prot := launchNginx(t)
	f := temporal.New(initP, servingP)
	if err := f.Install(prot.Proc); err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction(nginx.FnInit, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.EnterServingPhase(prot.Proc); err != nil {
		t.Fatal(err)
	}
	// AOCR NGINX Attack 2: corrupt globals, trigger the master loop.
	sc := prot.Machine.Prog.GlobalByName("scratch").Addr
	prot.Machine.Mem.Write(sc+32, append([]byte("/bin/sh"), 0))
	prot.Machine.Mem.WriteUint(prot.Machine.Prog.GlobalByName("exec_ctx").Addr, sc+32, 8)
	prot.Machine.Mem.WriteUint(prot.Machine.Prog.GlobalByName("upgrade_requested").Addr, 1, 8)
	var xe *vm.ExitError
	if _, err := prot.Machine.CallFunction(nginx.FnMasterCycle); err != nil && !errors.As(err, &xe) {
		t.Fatalf("attack run: %v", err)
	}
	if !prot.Proc.HasEvent(kernel.EventExec, "/bin/sh") {
		t.Fatal("attack did not complete under the temporal filter — §12 comparison broken")
	}
}

// TestTemporalFilterBlocksOutOfProfileSyscalls: the baseline is not a
// strawman — it does kill syscalls outside the serving profile.
func TestTemporalFilterBlocksOutOfProfileSyscalls(t *testing.T) {
	initP, servingP := profileNginx(t)
	prot := launchNginx(t)
	f := temporal.New(initP, servingP)
	if err := f.Install(prot.Proc); err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction(nginx.FnInit, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.EnterServingPhase(prot.Proc); err != nil {
		t.Fatal(err)
	}
	// chmod is in neither profile: killed.
	_, err := prot.Machine.CallFunction("chmod", 0, 0)
	var ke *vm.KillError
	if !errors.As(err, &ke) || !strings.Contains(ke.Reason, "KILL") {
		t.Fatalf("chmod outside profile: %v", err)
	}
}
