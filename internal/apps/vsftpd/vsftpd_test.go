package vsftpd_test

import (
	"bytes"
	"errors"
	"testing"

	"bastion/internal/apps/vsftpd"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/kernel/fs"
	"bastion/internal/kernel/netstack"
	"bastion/internal/vm"
)

const fileSize = 64 * 1024

func launch(t *testing.T, bare bool) *core.Protected {
	t.Helper()
	art, err := core.Compile(vsftpd.Build(), core.CompileOptions{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	k := kernel.New(nil)
	blob := bytes.Repeat([]byte{0xab}, fileSize)
	if err := k.FS.WriteFile("/pub/file.bin", blob, fs.ModeRead); err != nil {
		t.Fatal(err)
	}
	var prot *core.Protected
	if bare {
		prot, err = core.LaunchUnprotected(art, k, vm.WithMaxSteps(1<<26))
	} else {
		prot, err = core.Launch(art, k, monitor.DefaultConfig(), vm.WithMaxSteps(1<<26))
	}
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return prot
}

func TestPassiveDownloadProtected(t *testing.T) {
	prot := launch(t, false)
	lfd, err := prot.Machine.CallFunction(vsftpd.FnInit)
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	ctrl, err := prot.Kernel.Net.Dial(vsftpd.ControlPort)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.ClientWrite([]byte("USER anon\r\nPASS x\r\n"))
	cfd, err := prot.Machine.CallFunction(vsftpd.FnSession, lfd)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if got := string(ctrl.ClientReadAll()); got != "230" {
		t.Fatalf("greeting = %q", got)
	}

	if _, err := prot.Machine.CallFunction(vsftpd.FnPasv, cfd, vsftpd.DataPortBase); err != nil {
		t.Fatalf("pasv: %v", err)
	}
	if got := string(ctrl.ClientReadAll()); got != "227" {
		t.Fatalf("pasv reply = %q", got)
	}
	data, err := prot.Kernel.Net.Dial(vsftpd.DataPortBase)
	if err != nil {
		t.Fatalf("data dial: %v", err)
	}
	n, err := prot.Machine.CallFunction(vsftpd.FnRetr, cfd)
	if err != nil {
		t.Fatalf("retr: %v", err)
	}
	if n != fileSize {
		t.Fatalf("transferred %d, want %d", n, fileSize)
	}
	got := data.ClientReadAll()
	if len(got) != fileSize || got[0] != 0xab {
		t.Fatalf("data bytes = %d", len(got))
	}
	if got := string(ctrl.ClientReadAll()); got != "226" {
		t.Fatalf("completion = %q", got)
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations: %v", prot.Monitor.Violations)
	}
}

func TestActiveDownload(t *testing.T) {
	prot := launch(t, false)
	if _, err := prot.Machine.CallFunction(vsftpd.FnInit); err != nil {
		t.Fatal(err)
	}
	// The "client" listens on its own data port; the guest connects out.
	clientSock := prot.Kernel.Net.NewSocket()
	if err := prot.Kernel.Net.Bind(clientSock, 40010); err != nil {
		t.Fatal(err)
	}
	if err := prot.Kernel.Net.Listen(clientSock, 1); err != nil {
		t.Fatal(err)
	}
	n, err := prot.Machine.CallFunction(vsftpd.FnPort, 0, 40010)
	if err != nil {
		t.Fatalf("port retr: %v", err)
	}
	if n != fileSize {
		t.Fatalf("transferred %d", n)
	}
	conn, err := prot.Kernel.Net.Accept(clientSock)
	if err != nil {
		t.Fatal(err)
	}
	if got := conn.ClientReadAll(); len(got) != 0 {
		// The guest wrote into the server side; client reads server bytes.
		t.Logf("note: client-side queue %d", len(got))
	}
	_ = conn
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations: %v", prot.Monitor.Violations)
	}
}

func TestTransferSyscallProfile(t *testing.T) {
	prot := launch(t, true)
	lfd, err := prot.Machine.CallFunction(vsftpd.FnInit)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, _ := prot.Kernel.Net.Dial(vsftpd.ControlPort)
	ctrl.ClientWrite([]byte("USER a\r\n"))
	cfd, err := prot.Machine.CallFunction(vsftpd.FnSession, lfd)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		port := uint64(vsftpd.DataPortBase + 1 + i)
		if _, err := prot.Machine.CallFunction(vsftpd.FnPasv, cfd, port); err != nil {
			t.Fatalf("pasv %d: %v", i, err)
		}
		if _, err := prot.Kernel.Net.Dial(uint16(port)); err != nil {
			t.Fatal(err)
		}
		if n, err := prot.Machine.CallFunction(vsftpd.FnRetr, cfd); err != nil || n != fileSize {
			t.Fatalf("retr %d: %d, %v", i, n, err)
		}
	}
	c := prot.Proc.SyscallCounts
	// Per-transfer socket/bind/listen/accept, plus control setup.
	if c.Of(kernel.SysSocket) != 6 { // 1 control + 5 data
		t.Errorf("socket = %d", c.Of(kernel.SysSocket))
	}
	if c.Of(kernel.SysBind) != 6 || c.Of(kernel.SysListen) != 6 {
		t.Errorf("bind/listen = %d/%d", c.Of(kernel.SysBind), c.Of(kernel.SysListen))
	}
	if c.Of(kernel.SysAccept) != 6 { // 1 session + 5 data
		t.Errorf("accept = %d", c.Of(kernel.SysAccept))
	}
	if c.Of(kernel.SysSendfile) != uint64(5*(fileSize/65536+1)) {
		t.Errorf("sendfile = %d", c.Of(kernel.SysSendfile))
	}
}

func TestSessionBufferIsOverflowable(t *testing.T) {
	// The 64-byte command buffer accepts up to 256 bytes: verify the
	// vulnerability exists (unprotected machine, oversized input smashes
	// the frame and the return diverts). This anchors the ROP case study.
	prot := launch(t, true)
	lfd, err := prot.Machine.CallFunction(vsftpd.FnInit)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, _ := prot.Kernel.Net.Dial(vsftpd.ControlPort)
	payload := bytes.Repeat([]byte{0x41}, 120) // clobbers saved rbp/ret
	ctrl.ClientWrite(payload)
	_, err = prot.Machine.CallFunction(vsftpd.FnSession, lfd)
	if err == nil {
		t.Fatal("oversized login did not corrupt control flow")
	}
	var cf *vm.ControlFault
	if !errors.As(err, &cf) {
		t.Fatalf("err = %v, want control fault from smashed frame", err)
	}
	_ = netstack.ErrClosed
}
