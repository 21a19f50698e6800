package kernel_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/mem"
	"bastion/internal/vm"
)

// newSysGuestFrom is newSysGuest with bufs as the kernel's Buffers, set
// before the guest's process registers.
func newSysGuestFrom(t *testing.T, bufs *kernel.Buffers) *sysGuest {
	t.Helper()
	p := guestlibc.NewProgram()
	b := ir.NewBuilder("main", 0)
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())
	clock := &vm.Clock{}
	k := kernel.New(clock)
	k.Buffers = bufs
	m, err := vm.New(p, vm.WithOS(k), vm.WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	k.Register(m)
	if err := m.Mem.Map(bufBase, bufPages*mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	return &sysGuest{t: t, k: k, m: m}
}

// TestReleasedBuffersCarryNothing: a process seeded with the buffers an
// earlier process released reuses them, yet starts with an empty event
// log, a staging buffer of zeros and no event entry left in the log's
// spare capacity; and its short reads and writes move only their own
// bytes, never the earlier process's.
func TestReleasedBuffersCarryNothing(t *testing.T) {
	var bufs kernel.Buffers
	a := newSysGuestFrom(t, &bufs)
	secret := bytes.Repeat([]byte{'S'}, 64*1024)
	a.poke(bufBase, secret)
	sink := a.open("/sink", nil)
	if n := a.call(kernel.SysWrite, sink, bufBase, uint64(len(secret))); n != int64(len(secret)) {
		t.Fatalf("write = %d", n)
	}
	a.accept() // logs socket events
	pa := a.k.Process(a.m)
	if len(pa.Events) == 0 {
		t.Fatal("the first process logged no events")
	}
	pa.Release()
	if len(pa.Events) != 0 {
		t.Fatalf("Events after Release = %v", pa.Events)
	}
	stage, events := bufs.Cap()
	if stage < len(secret) || events == 0 {
		t.Fatalf("Buffers hold %d staging bytes and %d event slots after Release", stage, events)
	}

	b := newSysGuestFrom(t, &bufs)
	pb := b.k.Process(b.m)
	if s, e := bufs.Cap(); s != 0 || e != 0 {
		t.Fatalf("Register left %d staging bytes and %d event slots in Buffers", s, e)
	}
	if got := pb.Staged(); len(got) < len(secret) || slices.ContainsFunc(got, func(c byte) bool { return c != 0 }) {
		t.Fatalf("the seeded staging buffer (%d bytes) is not the released one, cleared", len(got))
	}
	if len(pb.Events) != 0 || slices.ContainsFunc(pb.Events[:cap(pb.Events)], func(e kernel.Event) bool { return !reflect.DeepEqual(e, kernel.Event{}) }) {
		t.Fatalf("the seeded event log holds %d events or stale entries", len(pb.Events))
	}
	short := b.open("/short", []byte("xyz"))
	b.poke(bufBase, bytes.Repeat([]byte{'B'}, 4096))
	if n := b.call(kernel.SysRead, short, bufBase, 64*1024); n != 3 {
		t.Fatalf("short read = %d", n)
	}
	if got := b.peek(bufBase, 8); !bytes.Equal(got, []byte("xyzBBBBB")) {
		t.Fatalf("guest buffer after a short read = %q", got)
	}
	cfd, conn := b.accept()
	b.poke(bufBase, []byte("ok"))
	if n := b.call(kernel.SysWrite, cfd, bufBase, 2); n != 2 {
		t.Fatalf("short write = %d", n)
	}
	if got := conn.ClientReadAll(); string(got) != "ok" {
		t.Fatalf("client received %q", got)
	}
	for _, e := range pb.Events {
		if e.Kind != kernel.EventSocket {
			t.Fatalf("the second process logged %v", e)
		}
	}
}

// ptrace is the tracee view of the guest's process with ptrace charges.
func (g *sysGuest) ptrace() *kernel.Tracee {
	return &kernel.Tracee{P: g.k.Process(g.m), Fetch: g.k.Costs.GetRegs, ReadBase: g.k.Costs.ReadMemBase}
}

// TestReadMemStreamMatchesReadMem: streaming a range delivers the same
// bytes in order as one Read of it and fails with the same fault, for
// ranges that cross pages and ranges that run into or start in unmapped
// memory. It charges exactly what one Read of the delivered bytes
// charges: all of them, or, at a fault, the short count process_vm_readv
// returns.
func TestReadMemStreamMatchesReadMem(t *testing.T) {
	g := newSysGuest(t)
	pattern := make([]byte, bufPages*mem.PageSize)
	for i := range pattern {
		pattern[i] = byte(i * 7)
	}
	g.poke(bufBase, pattern)
	tr := g.ptrace()
	for _, addr := range []uint64{bufBase, bufBase + mem.PageSize - 3, bufEnd - 600, bufEnd - 1, unmappedAddr} {
		for _, n := range []uint64{0, 1, 7, 8, 9, 511, 512, 513, mem.PageSize, 3*mem.PageSize + 17} {
			want := make([]byte, n)
			wantErr := tr.Read(addr, want)

			var got []byte
			before := g.k.Clock.Cycles
			err := tr.Stream(addr, n, func(b []byte) { got = append(got, b...) })
			cycles := g.k.Clock.Cycles - before
			before = g.k.Clock.Cycles
			if rerr := tr.Read(addr, make([]byte, len(got))); rerr != nil {
				t.Fatalf("%#x+%d: the %d streamed bytes do not read: %v", addr, n, len(got), rerr)
			}
			if wantCycles := g.k.Clock.Cycles - before; cycles != wantCycles {
				t.Fatalf("%#x+%d: stream of %d bytes charged %d cycles, Read of them %d", addr, n, len(got), cycles, wantCycles)
			}
			if !reflect.DeepEqual(err, wantErr) {
				t.Fatalf("%#x+%d: stream error %v, Read %v", addr, n, err, wantErr)
			}
			if err == nil && !bytes.Equal(got, want) || !bytes.Equal(got, want[:len(got)]) {
				t.Fatalf("%#x+%d: stream delivered %d bytes that differ from Read's", addr, n, len(got))
			}
		}
	}
}

// TestReadUintMatchesReadMem: a word read charges exactly what a Read of
// its bytes charges, returns the little-endian value of those bytes, and
// fails with the same fault, for words inside a page, words that cross
// into the next page, words that run into unmapped memory and words that
// start there.
func TestReadUintMatchesReadMem(t *testing.T) {
	g := newSysGuest(t)
	pattern := make([]byte, bufPages*mem.PageSize)
	for i := range pattern {
		pattern[i] = byte(i*7 + 1)
	}
	g.poke(bufBase, pattern)
	tr := g.ptrace()
	for _, addr := range []uint64{bufBase, bufBase + 13, bufBase + mem.PageSize - 3, bufEnd - 8, bufEnd - 3, unmappedAddr} {
		for _, size := range []int64{1, 2, 4, 8} {
			var buf [8]byte
			before := g.k.Clock.Cycles
			wantErr := tr.Read(addr, buf[:size])
			wantCycles := g.k.Clock.Cycles - before
			var want uint64
			if wantErr == nil {
				want = binary.LittleEndian.Uint64(buf[:])
			}

			before = g.k.Clock.Cycles
			got, err := tr.Uint(addr, size)
			if cycles := g.k.Clock.Cycles - before; cycles != wantCycles {
				t.Fatalf("%#x/%d: Uint charged %d cycles, Read %d", addr, size, cycles, wantCycles)
			}
			if !reflect.DeepEqual(err, wantErr) {
				t.Fatalf("%#x/%d: Uint error %v, Read %v", addr, size, err, wantErr)
			}
			if got != want {
				t.Fatalf("%#x/%d: Uint = %#x, Read bytes give %#x", addr, size, got, want)
			}
		}
	}
}
