package kernel_test

import (
	"bytes"
	"testing"
	"time"

	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/kernel/fs"
	"bastion/internal/kernel/netstack"
	"bastion/internal/mem"
	"bastion/internal/vm"
)

// Guest memory the syscall tests use: bufPages read-write pages at
// bufBase, and nothing mapped at unmappedAddr.
const (
	bufBase      = 0x5000_0000
	bufPages     = 32
	bufEnd       = bufBase + bufPages*mem.PageSize
	unmappedAddr = 0x6000_0000
	pathAddr     = bufEnd - 256 // file paths passed to open
	testPort     = 8080
)

// sysGuest issues syscalls straight through Kernel.Syscall, with the
// registers a guest's syscall instruction would latch.
type sysGuest struct {
	t *testing.T
	k *kernel.Kernel
	m *vm.Machine
}

func newSysGuest(t *testing.T) *sysGuest {
	t.Helper()
	m, _, k := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		b.Ret(ir.Imm(0))
		p.AddFunc(b.Build())
	})
	if err := m.Mem.Map(bufBase, bufPages*mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	return &sysGuest{t: t, k: k, m: m}
}

func (g *sysGuest) call(nr uint64, args ...uint64) int64 {
	g.t.Helper()
	var a [6]uint64
	copy(a[:], args)
	r := &g.m.SysRegs
	r.RAX, r.RDI, r.RSI, r.RDX, r.R10, r.R8, r.R9 = nr, a[0], a[1], a[2], a[3], a[4], a[5]
	ret, err := g.k.Syscall(g.m)
	if err != nil {
		g.t.Fatalf("syscall %s: %v", kernel.Name(uint32(nr)), err)
	}
	return ret
}

func (g *sysGuest) poke(addr uint64, b []byte) {
	g.t.Helper()
	if err := g.m.Mem.Poke(addr, b); err != nil {
		g.t.Fatal(err)
	}
}

func (g *sysGuest) peek(addr uint64, n int) []byte {
	g.t.Helper()
	b := make([]byte, n)
	if err := g.m.Mem.Peek(addr, b); err != nil {
		g.t.Fatal(err)
	}
	return b
}

// open opens path (creating it with data when data is non-nil) read-write.
func (g *sysGuest) open(path string, data []byte) uint64 {
	g.t.Helper()
	if data != nil {
		if err := g.k.FS.WriteFile(path, data, fs.ModeRead|fs.ModeWrite); err != nil {
			g.t.Fatal(err)
		}
	}
	g.poke(pathAddr, append([]byte(path), 0))
	fd := g.call(kernel.SysOpen, pathAddr, fs.ORdwr|fs.OCreat, uint64(fs.ModeRead|fs.ModeWrite))
	if fd < 0 {
		g.t.Fatalf("open %s = %d", path, fd)
	}
	return uint64(fd)
}

// listen returns the guest fd of a socket listening on testPort.
func (g *sysGuest) listen() uint64 {
	g.t.Helper()
	sfd := uint64(g.call(kernel.SysSocket))
	g.poke(pathAddr, []byte{2, 0, testPort >> 8, testPort & 0xff})
	if r := g.call(kernel.SysBind, sfd, pathAddr, 16); r != 0 {
		g.t.Fatalf("bind = %d", r)
	}
	if r := g.call(kernel.SysListen, sfd, 8); r != 0 {
		g.t.Fatalf("listen = %d", r)
	}
	return sfd
}

// accept returns the guest fd and client end of one loopback connection.
func (g *sysGuest) accept() (uint64, *netstack.Conn) {
	g.t.Helper()
	sfd := g.listen()
	conn, err := g.k.Net.Dial(testPort)
	if err != nil {
		g.t.Fatal(err)
	}
	cfd := g.call(kernel.SysAccept, sfd, 0, 0)
	if cfd < 0 {
		g.t.Fatalf("accept = %d", cfd)
	}
	return uint64(cfd), conn
}

func (g *sysGuest) offset(fd uint64) int64 {
	g.t.Helper()
	return g.call(kernel.SysLseek, fd, 0, fs.SeekCur)
}

// TestStagingNeverLeaksStaleBytes fills the staging buffer with a large
// write and a large sendfile, then checks that short reads and writes move
// exactly their own bytes: the bytes past n in the buffer never reach the
// guest, a file or a socket.
func TestStagingNeverLeaksStaleBytes(t *testing.T) {
	g := newSysGuest(t)
	big := bytes.Repeat([]byte{'A'}, 64*1024)
	g.poke(bufBase, big)
	sink := g.open("/sink", nil)
	if n := g.call(kernel.SysWrite, sink, bufBase, uint64(len(big))); n != int64(len(big)) {
		t.Fatalf("large write = %d", n)
	}
	fill := func() { g.poke(bufBase, bytes.Repeat([]byte{'B'}, 4096)) }

	// A short read from a file.
	short := g.open("/short", []byte("xyz"))
	fill()
	if n := g.call(kernel.SysRead, short, bufBase, 4096); n != 3 {
		t.Fatalf("short file read = %d, want 3", n)
	}
	if got, want := g.peek(bufBase, 8), []byte("xyzBBBBB"); !bytes.Equal(got, want) {
		t.Fatalf("after short file read, guest buffer = %q, want %q", got, want)
	}

	// A large sendfile, then a short read from a socket.
	src := g.open("/src", bytes.Repeat([]byte{'S'}, 48*1024))
	if n := g.call(kernel.SysSendfile, sink, src, 0, 1<<20); n != 48*1024 {
		t.Fatalf("large sendfile = %d", n)
	}
	cfd, conn := g.accept()
	if _, err := conn.ClientWrite([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	fill()
	if n := g.call(kernel.SysRead, cfd, bufBase, 4096); n != 2 {
		t.Fatalf("short socket read = %d, want 2", n)
	}
	if got, want := g.peek(bufBase, 6), []byte("hiBBBB"); !bytes.Equal(got, want) {
		t.Fatalf("after short socket read, guest buffer = %q, want %q", got, want)
	}

	// Short writes to a file and a socket carry only their own bytes.
	g.poke(bufBase, []byte("hello"))
	out := g.open("/out", nil)
	if n := g.call(kernel.SysWrite, out, bufBase, 5); n != 5 {
		t.Fatalf("short file write = %d", n)
	}
	if data, _ := g.k.FS.ReadFile("/out"); string(data) != "hello" {
		t.Fatalf("/out = %q, want %q", data, "hello")
	}
	if n := g.call(kernel.SysWrite, cfd, bufBase, 5); n != 5 {
		t.Fatalf("short socket write = %d", n)
	}
	if got := conn.ClientReadAll(); string(got) != "hello" {
		t.Fatalf("client received %q, want %q", got, "hello")
	}
	// A short sendfile after the large one moves only the file's bytes.
	tiny := g.open("/tiny", []byte("ok"))
	if n := g.call(kernel.SysSendfile, cfd, tiny, 0, 4096); n != 2 {
		t.Fatalf("short sendfile = %d", n)
	}
	if got := conn.ClientReadAll(); string(got) != "ok" {
		t.Fatalf("client received %q, want %q", got, "ok")
	}
	if data, _ := g.k.FS.ReadFile("/sink"); len(data) != len(big)+48*1024 {
		t.Fatalf("/sink holds %d bytes, want %d", len(data), len(big)+48*1024)
	}
}

// TestStagingFaultsKeepErrnoAndOffset pins what read and write do when the
// guest buffer is unmapped, wholly or from its third byte on: the errno,
// the file offset afterwards, the bytes that landed in the mapped part,
// and what the file or the client sees. A file read consumes its bytes
// before the copy to the guest faults; a write faults before it moves any.
func TestStagingFaultsKeepErrnoAndOffset(t *testing.T) {
	const straddle = bufEnd - 2 // two mapped bytes, then unmapped
	for _, tc := range []struct {
		name    string
		nr      uint64
		buf     uint64
		socket  bool
		wantOff int64  // file offset after the call (files only)
		landed  string // bytes at buf's mapped part afterwards (reads only)
		rest    string // what a follow-up read of 16 bytes returns
	}{
		{name: "file read to unmapped", nr: kernel.SysRead, buf: unmappedAddr, wantOff: 4, rest: "456789"},
		{name: "file read straddling", nr: kernel.SysRead, buf: straddle, wantOff: 4, landed: "01", rest: "456789"},
		{name: "file write from unmapped", nr: kernel.SysWrite, buf: unmappedAddr, wantOff: 0, rest: "0123456789"},
		{name: "file write straddling", nr: kernel.SysWrite, buf: straddle, wantOff: 0, rest: "0123456789"},
		{name: "socket read to unmapped", nr: kernel.SysRead, buf: unmappedAddr, socket: true, rest: "456789"},
		{name: "socket read straddling", nr: kernel.SysRead, buf: straddle, socket: true, landed: "01", rest: "456789"},
		{name: "socket write from unmapped", nr: kernel.SysWrite, buf: unmappedAddr, socket: true},
		{name: "socket write straddling", nr: kernel.SysWrite, buf: straddle, socket: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newSysGuest(t)
			// Warm the staging buffer with unrelated bytes first.
			g.poke(bufBase, bytes.Repeat([]byte{'W'}, 8192))
			warm := g.open("/warm", nil)
			g.call(kernel.SysWrite, warm, bufBase, 8192)
			g.poke(straddle, []byte("zz"))

			var fd uint64
			var conn *netstack.Conn
			if tc.socket {
				fd, conn = g.accept()
				if _, err := conn.ClientWrite([]byte("0123456789")); err != nil {
					t.Fatal(err)
				}
			} else {
				fd = g.open("/data", []byte("0123456789"))
			}
			if r := g.call(tc.nr, fd, tc.buf, 4); r != -int64(kernel.EFAULT) {
				t.Fatalf("%s = %d, want -EFAULT", kernel.Name(uint32(tc.nr)), r)
			}
			if tc.landed != "" {
				if got := g.peek(straddle, 2); string(got) != tc.landed {
					t.Fatalf("mapped part of the buffer = %q, want %q", got, tc.landed)
				}
			}
			if tc.socket && tc.nr == kernel.SysWrite {
				if got := conn.ClientReadAll(); len(got) != 0 {
					t.Fatalf("client received %q after a faulting write", got)
				}
				return
			}
			if !tc.socket {
				if off := g.offset(fd); off != tc.wantOff {
					t.Fatalf("offset after the fault = %d, want %d", off, tc.wantOff)
				}
				if data, _ := g.k.FS.ReadFile("/data"); string(data) != "0123456789" {
					t.Fatalf("file changed to %q", data)
				}
			}
			n := g.call(kernel.SysRead, fd, bufBase, 16)
			if got := g.peek(bufBase, int(max(n, 0))); string(got) != tc.rest {
				t.Fatalf("follow-up read = %q (%d), want %q", got, n, tc.rest)
			}
		})
	}
}

// TestAcceptFaultsOnUnwritableOutParams checks that accept answers EFAULT,
// not a new fd, when any byte of the peer sockaddr or of *addrlen lands on
// an unmapped page — not only the sockaddr's first two bytes.
func TestAcceptFaultsOnUnwritableOutParams(t *testing.T) {
	g := newSysGuest(t)
	sfd := g.listen()
	for _, tc := range []struct {
		name          string
		addr, addrlen uint64
	}{
		{"port bytes on an unmapped page", bufEnd - 2, 0},
		{"unmapped addrlen", bufBase, unmappedAddr},
	} {
		if _, err := g.k.Net.Dial(testPort); err != nil {
			t.Fatal(err)
		}
		if r := g.call(kernel.SysAccept, sfd, tc.addr, tc.addrlen); r != -int64(kernel.EFAULT) {
			t.Errorf("%s: accept = %d, want -EFAULT", tc.name, r)
		}
	}
}

// TestHugeMappingsFailWithENOMEM: mmap, brk and mremap lengths past the
// address-space cap fail with ENOMEM at once, and the guest keeps running.
func TestHugeMappingsFailWithENOMEM(t *testing.T) {
	g := newSysGuest(t)
	start := time.Now()
	const anon = kernel.MapPrivate | kernel.MapAnonymous
	rw := uint64(kernel.ProtRead | kernel.ProtWrite)
	if r := g.call(kernel.SysMmap, 0, 1<<40, rw, anon, ^uint64(0), 0); r != -int64(kernel.ENOMEM) {
		t.Fatalf("mmap(1<<40) = %d, want -ENOMEM", r)
	}
	if r := g.call(kernel.SysMmap, 0x7e00_0000_0000, 1<<46, rw, anon|kernel.MapFixed, ^uint64(0), 0); r != -int64(kernel.ENOMEM) {
		t.Fatalf("mmap(MAP_FIXED, 1<<46) = %d, want -ENOMEM", r)
	}
	brk := g.call(kernel.SysBrk, 0)
	if r := g.call(kernel.SysBrk, uint64(brk)+1<<40); r != brk {
		t.Fatalf("brk(+1<<40) = %#x, want the old break %#x", r, brk)
	}
	if r := g.call(kernel.SysBrk, ^uint64(0)); r != brk {
		t.Fatalf("brk(max) = %#x, want the old break %#x", r, brk)
	}
	// The guest keeps running: a normal mapping still works.
	a := g.call(kernel.SysMmap, 0, 2*mem.PageSize, rw, anon, ^uint64(0), 0)
	if a < 0 {
		t.Fatalf("mmap(8192) after the failures = %d", a)
	}
	g.poke(uint64(a), []byte("live"))
	if r := g.call(kernel.SysMremap, uint64(a), 2*mem.PageSize, 1<<40); r != -int64(kernel.ENOMEM) {
		t.Fatalf("mremap(1<<40) = %d, want -ENOMEM", r)
	}
	// A huge old size copies only what is mapped before faulting, through a
	// bounded buffer, and munmap of a huge range costs the pages mapped.
	if r := g.call(kernel.SysMremap, uint64(a), 1<<40, 4*mem.PageSize); r != -int64(kernel.EFAULT) {
		t.Fatalf("mremap(old 1<<40) = %d, want -EFAULT", r)
	}
	if got := g.peek(uint64(a), 4); string(got) != "live" {
		t.Fatalf("mapping after failed mremaps = %q", got)
	}
	if r := g.call(kernel.SysMunmap, 0x7f00_0000_0000, 1<<44); r != 0 {
		t.Fatalf("munmap(1<<44) = %d", r)
	}
	if g.m.Mem.Mapped(uint64(a)) {
		t.Fatal("munmap left the mapping in place")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("huge mapping requests took %v", d)
	}
}

// TestWarmIOIsAllocationFree pins read, write and sendfile at zero
// allocations once the staging buffer has grown: the guard against the
// per-call buffers that used to set the GC pace.
func TestWarmIOIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := newSysGuest(t)
	in := g.open("/in", bytes.Repeat([]byte{'i'}, 8192))
	out := g.open("/out", nil)
	io := func() {
		g.call(kernel.SysLseek, in, 0, fs.SeekSet)
		if n := g.call(kernel.SysRead, in, bufBase, 8192); n != 8192 {
			t.Fatalf("read = %d", n)
		}
		g.call(kernel.SysLseek, out, 0, fs.SeekSet)
		if n := g.call(kernel.SysWrite, out, bufBase, 8192); n != 8192 {
			t.Fatalf("write = %d", n)
		}
		g.call(kernel.SysLseek, in, 0, fs.SeekSet)
		g.call(kernel.SysLseek, out, 0, fs.SeekSet)
		if n := g.call(kernel.SysSendfile, out, in, 0, 8192); n != 8192 {
			t.Fatalf("sendfile = %d", n)
		}
	}
	io()
	if allocs := testing.AllocsPerRun(100, io); allocs != 0 {
		t.Fatalf("warm read+write+sendfile allocate %.2f objects, want 0", allocs)
	}
}
