package nginx_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"bastion/internal/apps/nginx"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/kernel/fs"
	"bastion/internal/vm"
)

// launch compiles and starts the server (protected unless bare).
func launch(t *testing.T, bare bool) *core.Protected {
	t.Helper()
	art, err := core.Compile(nginx.Build(), core.CompileOptions{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	k := kernel.New(nil)
	page := bytes.Repeat([]byte("nginx simulated static page content\n"), 188)[:6745]
	if err := k.FS.WriteFile("/srv/index.html", page, fs.ModeRead); err != nil {
		t.Fatal(err)
	}
	k.FS.WriteFile("/usr/sbin/nginx", []byte{0x7f}, fs.ModeRead|fs.ModeExec)
	// Upstream listener for worker connects.
	up := k.Net.NewSocket()
	if err := k.Net.Bind(up, nginx.UpstreamPort); err != nil {
		t.Fatal(err)
	}
	if err := k.Net.Listen(up, 1024); err != nil {
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

func serveOne(t *testing.T, prot *core.Protected, lfd uint64, req string) (string, uint64) {
	t.Helper()
	conn, err := prot.Kernel.Net.Dial(nginx.Port)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	conn.ClientWrite([]byte(req))
	n, err := prot.Machine.CallFunction(nginx.FnHandleRequest, lfd)
	if err != nil {
		t.Fatalf("handle: %v", err)
	}
	return string(conn.ClientReadAll()), n
}

func TestServesStaticPageProtected(t *testing.T) {
	prot := launch(t, false)
	lfd, err := prot.Machine.CallFunction(nginx.FnInit, 2)
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	body, n := serveOne(t, prot, lfd, "GET /index.html HTTP/1.1\r\n\r\n")
	if n != 6745 || len(body) != 6745 {
		t.Fatalf("served %d bytes (body %d), want 6745", n, len(body))
	}
	if !strings.HasPrefix(body, "nginx simulated") {
		t.Fatalf("body prefix %q", body[:20])
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations: %v", prot.Monitor.Violations)
	}
	// Steady state: exactly one sensitive trap (accept4) per request.
	if prot.Monitor.ChecksByNr.Of(kernel.SysAccept4) != 1 {
		t.Fatalf("accept4 checks = %v", prot.Monitor.ChecksByNr)
	}
}

func TestInitSyscallProfile(t *testing.T) {
	prot := launch(t, true)
	if _, err := prot.Machine.CallFunction(nginx.FnInit, 4); err != nil {
		t.Fatalf("init: %v", err)
	}
	c := prot.Proc.SyscallCounts
	// Per Table 4's shape: init-heavy mmap/mprotect, per-worker creds and
	// upstream sockets, one bind, two listens.
	if c.Of(kernel.SysMmap) != 1+4*16 {
		t.Errorf("mmap = %d, want %d", c.Of(kernel.SysMmap), 1+4*16)
	}
	if c.Of(kernel.SysMprotect) != 1+4*6 {
		t.Errorf("mprotect = %d, want %d", c.Of(kernel.SysMprotect), 1+4*6)
	}
	if c.Of(kernel.SysSetuid) != 4 || c.Of(kernel.SysSetgid) != 4 {
		t.Errorf("setuid/setgid = %d/%d", c.Of(kernel.SysSetuid), c.Of(kernel.SysSetgid))
	}
	if c.Of(kernel.SysSocket) != 5 { // 4 workers + 1 listener
		t.Errorf("socket = %d", c.Of(kernel.SysSocket))
	}
	if c.Of(kernel.SysBind) != 1 || c.Of(kernel.SysListen) != 2 {
		t.Errorf("bind/listen = %d/%d", c.Of(kernel.SysBind), c.Of(kernel.SysListen))
	}
	if c.Of(kernel.SysClone) != 4*3 {
		t.Errorf("clone = %d", c.Of(kernel.SysClone))
	}
	if c.Of(kernel.SysConnect) != 4 {
		t.Errorf("connect = %d", c.Of(kernel.SysConnect))
	}
}

func TestMissingFileClosesConnection(t *testing.T) {
	prot := launch(t, false)
	lfd, err := prot.Machine.CallFunction(nginx.FnInit, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, n := serveOne(t, prot, lfd, "GET /nope.html HTTP/1.1\r\n\r\n")
	if n != 0 || body != "" {
		t.Fatalf("served %d bytes %q for missing file", n, body)
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations: %v", prot.Monitor.Violations)
	}
}

func TestUpgradePathLegitimate(t *testing.T) {
	prot := launch(t, false)
	if _, err := prot.Machine.CallFunction(nginx.FnInit, 1); err != nil {
		t.Fatal(err)
	}
	_, err := prot.Machine.CallFunction(nginx.FnMasterUpgrade)
	var xe *vm.ExitError
	if err != nil && !errors.As(err, &xe) {
		t.Fatalf("upgrade failed: %v", err)
	}
	if !prot.Proc.HasEvent(kernel.EventExec, "/usr/sbin/nginx") {
		t.Fatalf("no exec event; events=%v", prot.Proc.Events)
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations on legit upgrade: %v", prot.Monitor.Violations)
	}
}

func TestIndexedVariableBenign(t *testing.T) {
	prot := launch(t, false)
	if _, err := prot.Machine.CallFunction(nginx.FnInit, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction(nginx.FnIndexedVar, 0, 1); err != nil {
		t.Fatalf("indexed variable: %v", err)
	}
	g := prot.Machine.Prog.GlobalByName("ngx_http_variable_depth")
	v, _ := prot.Machine.Mem.ReadUint(g.Addr, 8)
	if v != 1 {
		t.Fatalf("depth = %d", v)
	}
}

func TestManyRequestsStayClean(t *testing.T) {
	prot := launch(t, false)
	lfd, err := prot.Machine.CallFunction(nginx.FnInit, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, n := serveOne(t, prot, lfd, "GET /index.html HTTP/1.1\r\n\r\n"); n != 6745 {
			t.Fatalf("request %d served %d", i, n)
		}
	}
	if got := prot.Monitor.ChecksByNr.Of(kernel.SysAccept4); got != 25 {
		t.Fatalf("accept4 checks = %d", got)
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations: %v", prot.Monitor.Violations)
	}
	// Call-depth statistics land in the paper's reported range (§9.2).
	if avg := prot.Machine.AvgSyscallDepth(); avg < 2 || avg > 10 {
		t.Fatalf("avg syscall depth = %v", avg)
	}
}
