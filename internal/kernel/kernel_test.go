package kernel_test

import (
	"errors"
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/kernel/fs"
	"bastion/internal/seccomp"
	"bastion/internal/vm"
)

// newGuest builds a machine+process pair around a program assembled by
// build, which receives a libc-populated program to extend.
func newGuest(t *testing.T, build func(p *ir.Program)) (*vm.Machine, *kernel.Process, *kernel.Kernel) {
	t.Helper()
	p := guestlibc.NewProgram()
	build(p)
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	clock := &vm.Clock{}
	k := kernel.New(clock)
	m, err := vm.New(p, vm.WithOS(k), vm.WithClock(clock), vm.WithMaxSteps(1<<22))
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	proc := k.Register(m)
	return m, proc, k
}

// storeString emits IR that copies a Go string (plus NUL) into a local
// buffer and returns the buffer's address register.
func storeString(b *ir.Builder, local string, s string) ir.Reg {
	addr := b.Lea(local, 0)
	for i := 0; i < len(s); i++ {
		b.Store(addr, int64(i), ir.Imm(int64(s[i])), 1)
	}
	b.Store(addr, int64(len(s)), ir.Imm(0), 1)
	return addr
}

func TestFileReadWriteThroughSyscalls(t *testing.T) {
	m, proc, k := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		b.Local("path", 32)
		b.Local("buf", 64)
		path := storeString(b, "path", "/etc/motd")
		fd := b.Call("open", ir.R(path), ir.Imm(fs.ORdonly), ir.Imm(0))
		// Keep fd in a memory slot, as compiled C would spill it; this is
		// also the pattern BASTION's use-def analysis traces.
		b.Local("fd", 8)
		b.StoreLocal("fd", ir.R(fd))
		buf := b.Lea("buf", 0)
		fd1 := b.LoadLocal("fd")
		n := b.Call("read", ir.R(fd1), ir.R(buf), ir.Imm(64))
		buf2 := b.Lea("buf", 0)
		b.Call("write", ir.Imm(1), ir.R(buf2), ir.R(n)) // echo to stdout
		fd2 := b.LoadLocal("fd")
		b.Call("close", ir.R(fd2))
		b.Ret(ir.R(n))
		p.AddFunc(b.Build())
	})
	if err := k.FS.WriteFile("/etc/motd", []byte("welcome"), fs.ModeRead); err != nil {
		t.Fatal(err)
	}
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 7 {
		t.Fatalf("read returned %d, want 7", got)
	}
	if proc.Stdout.String() != "welcome" {
		t.Fatalf("stdout = %q", proc.Stdout.String())
	}
	if proc.SyscallCounts.Of(kernel.SysOpen) != 1 || proc.SyscallCounts.Of(kernel.SysRead) != 1 {
		t.Fatalf("counts = %v", proc.SyscallCounts)
	}
}

func TestOpenMissingFileReturnsENOENT(t *testing.T) {
	m, _, _ := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		b.Local("path", 16)
		path := storeString(b, "path", "/nope")
		fd := b.Call("open", ir.R(path), ir.Imm(fs.ORdonly), ir.Imm(0))
		b.Ret(ir.R(fd))
		p.AddFunc(b.Build())
	})
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if int64(got) != -kernel.ENOENT {
		t.Fatalf("open = %d, want -ENOENT", int64(got))
	}
}

func TestMmapMprotectAndEvents(t *testing.T) {
	m, proc, _ := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		addr := b.Call("mmap", ir.Imm(0), ir.Imm(8192),
			ir.Imm(kernel.ProtRead|kernel.ProtWrite),
			ir.Imm(kernel.MapPrivate|kernel.MapAnonymous), ir.Imm(-1), ir.Imm(0))
		b.Store(addr, 0, ir.Imm(0x55), 8)
		v := b.Load(addr, 0, 8)
		b.Call("mprotect", ir.R(addr), ir.Imm(4096), ir.Imm(kernel.ProtRead|kernel.ProtExec))
		b.Ret(ir.R(v))
		p.AddFunc(b.Build())
	})
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 0x55 {
		t.Fatalf("load after mmap = %#x", got)
	}
	if !proc.HasEvent(kernel.EventMemExec, "mprotect exec") {
		t.Fatalf("missing mem-exec event; events = %v", proc.Events)
	}
}

func TestMmapWXLogsEvent(t *testing.T) {
	m, proc, _ := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		a := b.Call("mmap", ir.Imm(0), ir.Imm(4096),
			ir.Imm(kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec),
			ir.Imm(kernel.MapPrivate|kernel.MapAnonymous), ir.Imm(-1), ir.Imm(0))
		b.Ret(ir.R(a))
		p.AddFunc(b.Build())
	})
	if _, err := m.CallFunction("main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !proc.HasEvent(kernel.EventMemExec, "mmap W+X") {
		t.Fatalf("missing W+X event; events = %v", proc.Events)
	}
}

// buildSockaddr emits IR storing an AF_INET sockaddr with the port into a
// 16-byte local and returns its address register.
func buildSockaddr(b *ir.Builder, local string, port uint16) ir.Reg {
	sa := b.Lea(local, 0)
	b.Store(sa, 0, ir.Imm(2), 2) // AF_INET
	b.Store(sa, 2, ir.Imm(int64(port>>8)), 1)
	b.Store(sa, 3, ir.Imm(int64(port&0xff)), 1)
	return sa
}

func TestSocketServerLoop(t *testing.T) {
	m, proc, k := newGuest(t, func(p *ir.Program) {
		// setup(): socket/bind(80)/listen; returns listen fd.
		sb := ir.NewBuilder("server_setup", 0)
		sb.Local("sa", 16)
		sb.Local("sfd", 8)
		sfd := sb.Call("socket", ir.Imm(2), ir.Imm(1), ir.Imm(0))
		sb.StoreLocal("sfd", ir.R(sfd))
		sa := buildSockaddr(sb, "sa", 80)
		sfd1 := sb.LoadLocal("sfd")
		sb.Call("bind", ir.R(sfd1), ir.R(sa), ir.Imm(16))
		sfd2 := sb.LoadLocal("sfd")
		sb.Call("listen", ir.R(sfd2), ir.Imm(128))
		sfd3 := sb.LoadLocal("sfd")
		sb.Ret(ir.R(sfd3))
		p.AddFunc(sb.Build())

		// handle(lfd): accept, read request, write response, close.
		hb := ir.NewBuilder("server_handle", 1)
		hb.Local("peer", 16)
		hb.Local("buf", 128)
		lfdr := hb.LoadLocal("p0")
		peer := hb.Lea("peer", 0)
		cfd := hb.Call("accept", ir.R(lfdr), ir.R(peer), ir.Imm(0))
		buf := hb.Lea("buf", 0)
		n := hb.Call("read", ir.R(cfd), ir.R(buf), ir.Imm(128))
		hb.Call("write", ir.R(cfd), ir.R(buf), ir.R(n)) // echo
		hb.Call("close", ir.R(cfd))
		hb.Ret(ir.R(n))
		p.AddFunc(hb.Build())

		mainb := ir.NewBuilder("main", 0)
		mainb.Ret(ir.Imm(0))
		p.AddFunc(mainb.Build())
	})
	_ = proc

	lfd, err := m.CallFunction("server_setup")
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	if int64(lfd) < 3 {
		t.Fatalf("listen fd = %d", int64(lfd))
	}
	// Client connects and sends a request.
	conn, err := k.Net.Dial(80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	conn.ClientWrite([]byte("GET /"))
	n, err := m.CallFunction("server_handle", lfd)
	if err != nil {
		t.Fatalf("handle: %v", err)
	}
	if n != 5 {
		t.Fatalf("handled %d bytes", n)
	}
	if got := string(conn.ClientReadAll()); got != "GET /" {
		t.Fatalf("echo = %q", got)
	}
	// No pending connection: accept yields -EAGAIN, read on bad fd follows.
	n2, err := m.CallFunction("server_handle", lfd)
	if err != nil {
		t.Fatalf("handle empty: %v", err)
	}
	if int64(n2) >= 0 {
		t.Fatalf("read after failed accept = %d, want negative errno", int64(n2))
	}
}

func TestSeccompKillOnDeniedSyscall(t *testing.T) {
	m, proc, _ := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		b.Local("path", 16)
		path := storeString(b, "path", "/bin/sh")
		b.Call("execve", ir.R(path), ir.Imm(0), ir.Imm(0))
		b.Ret(ir.Imm(0))
		p.AddFunc(b.Build())
	})
	pol := &seccomp.Policy{Default: seccomp.RetAllow, Actions: map[uint32]uint32{
		kernel.SysExecve: seccomp.RetKill,
	}}
	prog, err := pol.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.SetSeccompFilter(prog); err != nil {
		t.Fatal(err)
	}
	_, err = m.CallFunction("main")
	var ke *vm.KillError
	if !errors.As(err, &ke) || ke.By != "seccomp" {
		t.Fatalf("err = %v, want seccomp kill", err)
	}
	if !proc.Killed() {
		t.Fatal("process not marked killed")
	}
	if proc.HasEvent(kernel.EventExec, "") {
		t.Fatal("execve executed despite kill")
	}
}

// countingTracer allows everything, counting traps; optionally kills.
type countingTracer struct {
	traps int
	kill  bool
}

func (c *countingTracer) Trap(p *kernel.Process) error {
	c.traps++
	if c.kill {
		return &vm.KillError{By: "monitor", Reason: "test kill"}
	}
	return nil
}

func TestSeccompTraceInvokesTracer(t *testing.T) {
	build := func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		b.Call("getpid")
		b.Call("mprotect", ir.Imm(0), ir.Imm(0), ir.Imm(0)) // fails, but traps first
		b.Ret(ir.Imm(0))
		p.AddFunc(b.Build())
	}
	pol := &seccomp.Policy{Default: seccomp.RetAllow, Actions: map[uint32]uint32{
		kernel.SysMprotect: seccomp.RetTrace,
	}}
	prog, err := pol.Compile()
	if err != nil {
		t.Fatal(err)
	}

	m, proc, _ := newGuest(t, build)
	tr := &countingTracer{}
	proc.SetSeccompFilter(prog)
	proc.SetTracer(tr)
	if _, err := m.CallFunction("main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	if tr.traps != 1 {
		t.Fatalf("traps = %d, want 1 (getpid must not trap)", tr.traps)
	}
	if proc.TrapCount != 1 {
		t.Fatalf("TrapCount = %d", proc.TrapCount)
	}

	// A killing tracer terminates the guest.
	m2, proc2, _ := newGuest(t, build)
	proc2.SetSeccompFilter(prog)
	proc2.SetTracer(&countingTracer{kill: true})
	_, err = m2.CallFunction("main")
	var ke *vm.KillError
	if !errors.As(err, &ke) || ke.By != "monitor" {
		t.Fatalf("err = %v, want monitor kill", err)
	}
}

func TestTraceWithoutTracerIsENOSYS(t *testing.T) {
	m, proc, _ := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		r := b.Call("getpid")
		b.Ret(ir.R(r))
		p.AddFunc(b.Build())
	})
	pol := &seccomp.Policy{Default: seccomp.RetTrace, Actions: map[uint32]uint32{}}
	prog, _ := pol.Compile()
	proc.SetSeccompFilter(prog)
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if int64(got) != -kernel.ENOSYS {
		t.Fatalf("getpid under TRACE w/o tracer = %d", int64(got))
	}
}

func TestExecveRecordsEventAndExits(t *testing.T) {
	m, proc, k := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		b.Local("path", 16)
		path := storeString(b, "path", "/bin/sh")
		b.Call("execve", ir.R(path), ir.Imm(0), ir.Imm(0))
		b.Ret(ir.Imm(9)) // never reached
		p.AddFunc(b.Build())
	})
	k.FS.WriteFile("/bin/sh", []byte("#!"), fs.ModeRead|fs.ModeExec)
	_, err := m.CallFunction("main")
	var xe *vm.ExitError
	if err != nil && !errors.As(err, &xe) {
		t.Fatalf("err = %v", err)
	}
	if !proc.HasEvent(kernel.EventExec, "/bin/sh") {
		t.Fatalf("missing exec event: %v", proc.Events)
	}
	if !m.Halted() {
		t.Fatal("machine still running after execve")
	}
}

func TestExecveOfNonExecutableFails(t *testing.T) {
	m, proc, k := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		b.Local("path", 16)
		path := storeString(b, "path", "/data")
		r := b.Call("execve", ir.R(path), ir.Imm(0), ir.Imm(0))
		b.Ret(ir.R(r))
		p.AddFunc(b.Build())
	})
	k.FS.WriteFile("/data", []byte("x"), fs.ModeRead)
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if int64(got) != -kernel.EACCES {
		t.Fatalf("execve = %d, want -EACCES", int64(got))
	}
	if proc.HasEvent(kernel.EventExec, "") {
		t.Fatal("exec event for failed execve")
	}
}

func TestSetuidSemantics(t *testing.T) {
	m, proc, _ := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		r1 := b.Call("setuid", ir.Imm(33)) // root -> www-data: ok
		r2 := b.Call("setuid", ir.Imm(0))  // www-data -> root: EPERM
		sum := b.Bin(ir.OpMul, ir.R(r1), ir.Imm(1000))
		out := b.Bin(ir.OpAdd, ir.R(sum), ir.R(r2))
		b.Ret(ir.R(out))
		p.AddFunc(b.Build())
	})
	proc.UID = 0
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if int64(got) != -kernel.EPERM { // 0*1000 + (-EPERM)
		t.Fatalf("result = %d", int64(got))
	}
	if proc.UID != 33 {
		t.Fatalf("uid = %d", proc.UID)
	}
	if !proc.HasEvent(kernel.EventSetuid, "uid 0 -> 33") {
		t.Fatalf("events = %v", proc.Events)
	}
}

func TestBrkGrowsHeap(t *testing.T) {
	m, _, _ := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		cur := b.Call("brk", ir.Imm(0))
		want := b.Bin(ir.OpAdd, ir.R(cur), ir.Imm(8192))
		nb := b.Call("brk", ir.R(want))
		b.Store(cur, 0, ir.Imm(0xaa), 8) // newly mapped heap is writable
		v := b.Load(cur, 0, 8)
		diff := b.Bin(ir.OpSub, ir.R(nb), ir.R(cur))
		sum := b.Bin(ir.OpAdd, ir.R(diff), ir.R(v))
		b.Ret(ir.R(sum))
		p.AddFunc(b.Build())
	})
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 8192+0xaa {
		t.Fatalf("got %d", got)
	}
}

func TestPtraceFacilityChargesClock(t *testing.T) {
	m, proc, k := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		r := b.Call("getpid")
		b.Ret(ir.R(r))
		p.AddFunc(b.Build())
	})
	if _, err := m.CallFunction("main"); err != nil {
		t.Fatal(err)
	}
	tr := &kernel.Tracee{P: proc, Fetch: k.Costs.GetRegs, ReadBase: k.Costs.ReadMemBase}
	before := k.Clock.Cycles
	_ = tr.Regs()
	if k.Clock.Cycles != before+k.Costs.GetRegs {
		t.Fatalf("GetRegs charged %d", k.Clock.Cycles-before)
	}
	before = k.Clock.Cycles
	buf := make([]byte, 64)
	if err := tr.Read(ir.StackTop-128, buf); err != nil {
		t.Fatalf("ReadMem: %v", err)
	}
	want := k.Costs.ReadMemBase + k.Costs.ReadMemPerWord*8
	if k.Clock.Cycles != before+want {
		t.Fatalf("ReadMem charged %d, want %d", k.Clock.Cycles-before, want)
	}
}

func TestUnknownSyscallENOSYS(t *testing.T) {
	m, _, _ := newGuest(t, func(p *ir.Program) {
		w := ir.NewBuilder("weird", 0)
		r := w.Syscall(404)
		w.Ret(ir.R(r))
		p.AddFunc(w.Build())
		b := ir.NewBuilder("main", 0)
		r2 := b.Call("weird")
		b.Ret(ir.R(r2))
		p.AddFunc(b.Build())
	})
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if int64(got) != -kernel.ENOSYS {
		t.Fatalf("syscall 404 = %d", int64(got))
	}
}

func TestSensitiveTableShape(t *testing.T) {
	if len(kernel.SensitiveSyscalls) != 20 {
		t.Fatalf("sensitive set has %d entries, want 20 (Table 1)", len(kernel.SensitiveSyscalls))
	}
	for _, nr := range kernel.SensitiveSyscalls {
		if !kernel.IsSensitive(nr) {
			t.Errorf("IsSensitive(%s) = false", kernel.Name(nr))
		}
		if kernel.SensitiveClass(nr) == "" {
			t.Errorf("no class for %s", kernel.Name(nr))
		}
	}
	if kernel.IsSensitive(kernel.SysRead) {
		t.Error("read should not be sensitive")
	}
	if kernel.Name(kernel.SysExecve) != "execve" || kernel.Name(kernel.SysAccept4) != "accept4" ||
		kernel.Name(9999) != "sys_9999" {
		t.Error("Name() misbehaves")
	}
}
