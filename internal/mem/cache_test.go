package mem_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/mem"
	"bastion/internal/vm"
)

const cacheBase = 0x40_0000

// TestWordCacheFlush checks each way a cached page can change under the
// word cache: its permissions (Protect, Map over it, and a guest's
// mprotect), its mapping (Unmap, then Map) and its backing (Release into
// a FreeList that another Space then draws from). After each, the cached
// accessors must miss where the checked ones would fault or read other
// bytes. Map, Unmap and Protect of one page of a cached region, and of a
// range of any length, drop only the pages in their range: the
// neighbours keep hitting. PeekUint and PokeUint read and write through
// the cache but never fill it.
func TestWordCacheFlush(t *testing.T) {
	t.Run("protect read-only", func(t *testing.T) {
		s := mem.NewSpace()
		mustMap(t, s, cacheBase, mem.PageSize, mem.PermRW)
		if err := s.WriteUint(cacheBase, 1, 8); err != nil {
			t.Fatal(err)
		}
		if !s.WriteUintCached(cacheBase+8, 2, 8) {
			t.Fatal("WriteUintCached missed a page WriteUint just wrote")
		}
		if err := s.Protect(cacheBase, mem.PageSize, mem.PermRead); err != nil {
			t.Fatal(err)
		}
		if s.WriteUintCached(cacheBase+8, 3, 8) {
			t.Fatal("WriteUintCached wrote to a read-only page")
		}
		var f *mem.Fault
		if err := s.WriteUint(cacheBase+8, 3, 8); !errors.As(err, &f) || f.Kind != mem.AccessWrite {
			t.Fatalf("WriteUint to a read-only page: %v, want a write fault", err)
		}
		if v, err := s.ReadUint(cacheBase+8, 8); err != nil || v != 2 {
			t.Fatalf("ReadUint = %d, %v; want 2", v, err)
		}
	})
	t.Run("map over a cached page", func(t *testing.T) {
		s := mem.NewSpace()
		mustMap(t, s, cacheBase, mem.PageSize, mem.PermRW)
		if err := s.WriteUint(cacheBase, 9, 8); err != nil {
			t.Fatal(err)
		}
		mustMap(t, s, cacheBase, mem.PageSize, mem.PermRead)
		if s.WriteUintCached(cacheBase, 1, 8) {
			t.Fatal("WriteUintCached wrote to a page mapped read-only over it")
		}
		if v, err := s.ReadUint(cacheBase, 8); err != nil || v != 9 {
			t.Fatalf("ReadUint = %d, %v; want the kept 9", v, err)
		}
	})
	t.Run("unmap then map", func(t *testing.T) {
		s := mem.NewSpace()
		mustMap(t, s, cacheBase, mem.PageSize, mem.PermRW)
		if err := s.WriteUint(cacheBase, 0x77, 8); err != nil {
			t.Fatal(err)
		}
		if v, err := s.ReadUint(cacheBase, 8); err != nil || v != 0x77 {
			t.Fatalf("ReadUint = %d, %v; want 0x77", v, err)
		}
		if err := s.Unmap(cacheBase, mem.PageSize); err != nil {
			t.Fatal(err)
		}
		if _, hit := s.ReadUintCached(cacheBase, 8); hit {
			t.Fatal("ReadUintCached hit an unmapped page")
		}
		mustMap(t, s, cacheBase, mem.PageSize, mem.PermRW)
		if _, hit := s.ReadUintCached(cacheBase, 8); hit {
			t.Fatal("ReadUintCached hit a page without backing")
		}
		if s.WriteUintCached(cacheBase, 1, 8) {
			t.Fatal("WriteUintCached hit a page without backing")
		}
		if v, err := s.ReadUint(cacheBase, 8); err != nil || v != 0 {
			t.Fatalf("a page mapped again reads %#x, %v; want 0", v, err)
		}
	})
	t.Run("release and reuse", func(t *testing.T) {
		list := &mem.FreeList{}
		a := mem.NewSpaceFrom(list)
		mustMap(t, a, cacheBase, mem.PageSize, mem.PermRW)
		for off := uint64(0); off < mem.PageSize; off += 8 {
			if err := a.WriteUint(cacheBase+off, ^uint64(0), 8); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.ReadUint(cacheBase, 8); err != nil {
			t.Fatal(err)
		}
		a.Release()
		if list.Len() != 1 {
			t.Fatalf("the list holds %d pages after Release, want 1", list.Len())
		}
		if _, hit := a.ReadUintCached(cacheBase, 8); hit {
			t.Fatal("ReadUintCached hit a released Space")
		}
		if a.WriteUintCached(cacheBase, 0, 8) {
			t.Fatal("WriteUintCached hit a released Space")
		}
		// b backs its first page with a's old backing.
		b := mem.NewSpaceFrom(list)
		mustMap(t, b, cacheBase, mem.PageSize, mem.PermRW)
		if err := b.WriteUint(cacheBase, 5, 1); err != nil {
			t.Fatal(err)
		}
		if list.Len() != 0 {
			t.Fatal("the second Space did not reuse the released backing")
		}
		var got, want [mem.PageSize]byte
		want[0] = 5
		if err := b.Read(cacheBase, got[:]); err != nil || got != want {
			t.Fatalf("reused backing reads %x…, %v; want 05 then zeros", got[:16], err)
		}
	})
	// One page in the middle of a three-page cached region changes; the
	// pages either side keep hitting with their bytes.
	page := func(i uint64) uint64 { return cacheBase + i*mem.PageSize }
	t.Run("protect one page of a cached region", func(t *testing.T) {
		s := cachedRegion(t, 3)
		if err := s.Protect(page(1), mem.PageSize, mem.PermRead); err != nil {
			t.Fatal(err)
		}
		mustHit(t, s, page(0), 1)
		mustHit(t, s, page(2), 3)
		mustMiss(t, s, page(1))
		var f *mem.Fault
		if err := s.WriteUint(page(1), 9, 8); !errors.As(err, &f) || f.Kind != mem.AccessWrite {
			t.Fatalf("WriteUint to the read-only page: %v, want a write fault", err)
		}
		if v, err := s.ReadUint(page(1), 8); err != nil || v != 2 {
			t.Fatalf("ReadUint of the read-only page = %d, %v; want 2", v, err)
		}
	})
	t.Run("unmap one page of a cached region", func(t *testing.T) {
		s := cachedRegion(t, 3)
		if err := s.Unmap(page(1), mem.PageSize); err != nil {
			t.Fatal(err)
		}
		mustHit(t, s, page(0), 1)
		mustHit(t, s, page(2), 3)
		mustMiss(t, s, page(1))
		var f *mem.Fault
		if _, err := s.ReadUint(page(1), 8); !errors.As(err, &f) || f.Why != "unmapped page" {
			t.Fatalf("ReadUint of the unmapped page: %v, want an unmapped-page fault", err)
		}
	})
	t.Run("map over one page of a cached region", func(t *testing.T) {
		s := cachedRegion(t, 3)
		mustMap(t, s, page(1), mem.PageSize, mem.PermNone)
		mustHit(t, s, page(0), 1)
		mustHit(t, s, page(2), 3)
		mustMiss(t, s, page(1))
		var f *mem.Fault
		if _, err := s.ReadUint(page(1), 8); !errors.As(err, &f) || f.Kind != mem.AccessRead {
			t.Fatalf("ReadUint of a page mapped PROT_NONE over it: %v, want a read fault", err)
		}
		if v, err := s.PeekUint(page(1), 8); err != nil || v != 2 {
			t.Fatalf("PeekUint of the page = %d, %v; want the kept 2", v, err)
		}
	})
	t.Run("protect a long range", func(t *testing.T) {
		// A 64 MiB region whose first and last pages are cached, and a
		// cached page of another region above it. Protecting all of the
		// first drops its two pages and keeps the other. An Unmap of a
		// range far longer than anything mapped drops what it covers in
		// one pass over the slots; a drop that walked the range page by
		// page would not return.
		const big = 64 << 20
		s := mem.NewSpace()
		mustMap(t, s, cacheBase, big, mem.PermRW)
		far := uint64(cacheBase + big + mem.PageSize)
		mustMap(t, s, far, mem.PageSize, mem.PermRW)
		for i, a := range []uint64{cacheBase, cacheBase + big - mem.PageSize, far} {
			if err := s.WriteUint(a, uint64(i+1), 8); err != nil {
				t.Fatal(err)
			}
			if _, err := s.ReadUint(a, 8); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Protect(cacheBase, big, mem.PermRead); err != nil {
			t.Fatal(err)
		}
		mustMiss(t, s, cacheBase)
		mustMiss(t, s, cacheBase+big-mem.PageSize)
		mustHit(t, s, far, 3)
		if v, err := s.ReadUint(cacheBase+big-mem.PageSize, 8); err != nil || v != 2 {
			t.Fatalf("ReadUint after Protect = %d, %v; want 2", v, err)
		}
		if err := s.WriteUint(cacheBase, 7, 8); err == nil {
			t.Fatal("WriteUint to a page of the read-only range succeeded")
		}
		if err := s.Unmap(0, 1<<50); err != nil {
			t.Fatal(err)
		}
		mustMiss(t, s, cacheBase+big-mem.PageSize)
		mustMiss(t, s, far)
		if regs := s.Regions(); len(regs) != 0 {
			t.Fatalf("Unmap of the whole range left %+v", regs)
		}
	})
	t.Run("peek and poke through the cache", func(t *testing.T) {
		s := cachedRegion(t, 2)
		// On cached pages PeekUint and PokeUint agree with Peek and
		// Poke at every width.
		for _, w := range []int64{1, 2, 4, 8} {
			a := page(0) + 24
			if err := s.PokeUint(a, 0x0102030405060708, w); err != nil {
				t.Fatal(err)
			}
			var b [8]byte
			if err := s.Peek(a, b[:]); err != nil {
				t.Fatal(err)
			}
			v, err := s.PeekUint(a, w)
			if err != nil || v != 0x0102030405060708&(1<<(8*w)-1) || v != binary.LittleEndian.Uint64(b[:])&(1<<(8*w)-1) {
				t.Fatalf("width %d: PeekUint = %#x, %v; Peek %x", w, v, err, b)
			}
			if err := s.Poke(a, []byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x11, 0x22}); err != nil {
				t.Fatal(err)
			}
			if v, err := s.PeekUint(a, 8); err != nil || v != 0x2211ffeeddccbbaa {
				t.Fatalf("PeekUint after Poke = %#x, %v", v, err)
			}
		}
		// A Poke to a page made read-only, whose read cache the checked
		// ReadUint refilled, is what the next cached read returns.
		if err := s.Protect(page(1), mem.PageSize, mem.PermRead); err != nil {
			t.Fatal(err)
		}
		if v, err := s.ReadUint(page(1), 8); err != nil || v != 2 {
			t.Fatalf("ReadUint = %d, %v; want 2", v, err)
		}
		if err := s.PokeUint(page(1), 0x5a, 8); err != nil {
			t.Fatal(err)
		}
		if v, hit := s.ReadUintCached(page(1), 8); !hit || v != 0x5a {
			t.Fatalf("ReadUintCached after PokeUint = %#x, %v; want a hit on 0x5a", v, hit)
		}
		if s.WriteUintCached(page(1), 0, 8) {
			t.Fatal("PokeUint put a read-only page in the write cache")
		}
	})
	t.Run("peek and poke never fill", func(t *testing.T) {
		s := mem.NewSpace()
		mustMap(t, s, cacheBase, mem.PageSize, mem.PermRW)
		if err := s.PokeUint(cacheBase, 4, 8); err != nil { // backs the page
			t.Fatal(err)
		}
		if v, err := s.PeekUint(cacheBase, 8); err != nil || v != 4 {
			t.Fatalf("PeekUint = %d, %v; want 4", v, err)
		}
		if err := s.PokeUint(cacheBase+8, 5, 8); err != nil {
			t.Fatal(err)
		}
		mustMiss(t, s, cacheBase)
		if v, err := s.ReadUint(cacheBase+8, 8); err != nil || v != 5 {
			t.Fatalf("ReadUint = %d, %v; want 5", v, err)
		}
		if v, hit := s.ReadUintCached(cacheBase, 8); !hit || v != 4 {
			t.Fatalf("ReadUintCached after ReadUint = %d, %v; want a hit on 4", v, hit)
		}
	})
	t.Run("guest mprotect", func(t *testing.T) {
		// setup maps an anonymous page and stores into it twice, so the
		// page is in the write cache; protect makes it read-only with
		// mprotect and stores again.
		p := guestlibc.NewProgram()
		sb := ir.NewBuilder("setup", 0)
		addr := sb.Call("mmap", ir.Imm(0), ir.Imm(mem.PageSize),
			ir.Imm(kernel.ProtRead|kernel.ProtWrite),
			ir.Imm(kernel.MapPrivate|kernel.MapAnonymous), ir.Imm(-1), ir.Imm(0))
		sb.Store(addr, 0, ir.Imm(1), 8)
		sb.Store(addr, 8, ir.Imm(2), 8)
		sb.Ret(ir.R(addr))
		p.AddFunc(sb.Build())
		pb := ir.NewBuilder("protect", 1)
		a := pb.LoadLocal("p0")
		pb.Call("mprotect", ir.R(a), ir.Imm(mem.PageSize), ir.Imm(kernel.ProtRead))
		pb.Store(a, 16, ir.Imm(3), 8)
		pb.Ret(ir.Imm(0))
		p.AddFunc(pb.Build())
		mb := ir.NewBuilder("main", 0)
		mb.Ret(ir.Imm(0))
		p.AddFunc(mb.Build())
		if err := p.Link(); err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		clock := &vm.Clock{}
		k := kernel.New(clock)
		m, err := vm.New(p, vm.WithOS(k), vm.WithClock(clock), vm.WithMaxSteps(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		k.Register(m)
		page, err := m.CallFunction("setup")
		if err != nil {
			t.Fatal(err)
		}
		if v, hit := m.Mem.ReadUintCached(page+8, 8); hit && v != 2 {
			t.Fatalf("cached read of the guest's store = %d, want 2", v)
		}
		if !m.Mem.WriteUintCached(page+8, 2, 8) {
			t.Fatal("the guest's stores left its page out of the write cache")
		}
		_, err = m.CallFunction("protect", page)
		var f *mem.Fault
		if !errors.As(err, &f) || f.Kind != mem.AccessWrite || f.Addr != page+16 {
			t.Fatalf("store after mprotect(PROT_READ): %v, want a write fault at %#x", err, page+16)
		}
	})
}

// cachedRegion maps n RW pages at cacheBase and writes, then reads, the
// word i+1 at the start of page i, so every page sits in both tables.
func cachedRegion(t *testing.T, n uint64) *mem.Space {
	t.Helper()
	s := mem.NewSpace()
	mustMap(t, s, cacheBase, n*mem.PageSize, mem.PermRW)
	for i := range n {
		a := cacheBase + i*mem.PageSize
		if err := s.WriteUint(a, i+1, 8); err != nil {
			t.Fatal(err)
		}
		if v, err := s.ReadUint(a, 8); err != nil || v != i+1 {
			t.Fatalf("ReadUint(%#x) = %d, %v; want %d", a, v, err, i+1)
		}
	}
	return s
}

// mustHit checks that both cached accessors serve the word at addr, which
// holds want: the read hit returns it and the write hit stores it back.
func mustHit(t *testing.T, s *mem.Space, addr, want uint64) {
	t.Helper()
	if v, hit := s.ReadUintCached(addr, 8); !hit || v != want {
		t.Fatalf("ReadUintCached(%#x) = %d, %v; want a hit on %d", addr, v, hit, want)
	}
	if !s.WriteUintCached(addr, want, 8) {
		t.Fatalf("WriteUintCached(%#x) missed a cached neighbour", addr)
	}
}

// mustMiss checks that neither cached accessor serves addr.
func mustMiss(t *testing.T, s *mem.Space, addr uint64) {
	t.Helper()
	if _, hit := s.ReadUintCached(addr, 8); hit {
		t.Fatalf("ReadUintCached(%#x) hit a page its range dropped", addr)
	}
	if s.WriteUintCached(addr, 0, 8) {
		t.Fatalf("WriteUintCached(%#x) hit a page its range dropped", addr)
	}
}

func mustMap(t *testing.T, s *mem.Space, addr, length uint64, perm mem.Perm) {
	t.Helper()
	if err := s.Map(addr, length, perm); err != nil {
		t.Fatal(err)
	}
}
