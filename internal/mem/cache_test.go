package mem_test

import (
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
// a FreeList that another Space then draws from). After each, the cached accessors must
// miss where the checked ones would fault or read other bytes.
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

func mustMap(t *testing.T, s *mem.Space, addr, length uint64, perm mem.Perm) {
	t.Helper()
	if err := s.Map(addr, length, perm); err != nil {
		t.Fatal(err)
	}
}
