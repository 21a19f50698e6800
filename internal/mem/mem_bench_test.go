package mem

import (
	"testing"

	"bastion/internal/ir"
)

// BenchmarkGuestWord measures the checked word access on the guest's hot
// path (every IR load/store lands here).
func BenchmarkGuestWord(b *testing.B) {
	s := NewSpace()
	if err := s.Map(0x10000, 1<<16, PermRW); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := 0x10000 + uint64(i%8000)*8
		if err := s.WriteUint(addr, uint64(i), 8); err != nil {
			b.Fatal(err)
		}
		if _, err := s.ReadUint(addr, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuestWordRegions measures word accesses that alternate between
// a guest's stack, data, heap and shadow regions, as the interpreter's loads
// and stores do, so consecutive accesses rarely hit the same region.
func BenchmarkGuestWordRegions(b *testing.B) {
	s := NewSpace()
	bases := []uint64{ir.StackTop - ir.StackSize, ir.DataBase, ir.HeapBase, ir.ShadowBase}
	for _, a := range bases {
		if err := s.Map(a, 1<<16, PermRW); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i%8000) * 8
		if err := s.WriteUint(bases[i%4]+off, uint64(i), 8); err != nil {
			b.Fatal(err)
		}
		if _, err := s.ReadUint(bases[(i+1)%4]+off, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuestWordCrossPage measures word accesses that straddle a page
// boundary, which leave the single-page fast path for the general
// byte-slice access.
func BenchmarkGuestWordCrossPage(b *testing.B) {
	s := NewSpace()
	if err := s.Map(0x10000, 1<<16, PermRW); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := 0x10000 + uint64(i%15+1)*PageSize - 4
		if err := s.WriteUint(addr, uint64(i), 8); err != nil {
			b.Fatal(err)
		}
		if _, err := s.ReadUint(addr, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapShadow measures mapping the 4 MiB shadow region, touching it
// with 1,024 scattered word stores (the hashed shadow table's first-touch
// pattern) and unmapping it again.
func BenchmarkMapShadow(b *testing.B) {
	s := NewSpace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Map(ir.ShadowBase, ir.ShadowSize, PermRW); err != nil {
			b.Fatal(err)
		}
		for k := uint64(0); k < 1024; k++ {
			off := k * 2654435761 % (ir.ShadowSize / 8) * 8
			if err := s.PokeUint(ir.ShadowBase+off, k, 8); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Unmap(ir.ShadowBase, ir.ShadowSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapShadowRecycled is BenchmarkMapShadow for a guest whose
// Space takes its pages from a free list and releases them when it is
// done, as a fleet worker's tenants do one after another: after the first
// round, every first touch reuses a released page.
func BenchmarkMapShadowRecycled(b *testing.B) {
	free := &FreeList{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSpaceFrom(free)
		if err := s.Map(ir.ShadowBase, ir.ShadowSize, PermRW); err != nil {
			b.Fatal(err)
		}
		for k := uint64(0); k < 1024; k++ {
			off := k * 2654435761 % (ir.ShadowSize / 8) * 8
			if err := s.PokeUint(ir.ShadowBase+off, k, 8); err != nil {
				b.Fatal(err)
			}
		}
		s.Release()
	}
}

// BenchmarkBulkCopy measures page-spanning block transfers (ptrace reads,
// kernel copy_to_user analogs).
func BenchmarkBulkCopy(b *testing.B) {
	s := NewSpace()
	if err := s.Map(0x10000, 1<<20, PermRW); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(0x10800, buf); err != nil { // unaligned start
			b.Fatal(err)
		}
		if err := s.Read(0x10800, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAccessStopsAtUnmappedBoundary(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	// A copy that begins in mapped memory and runs off the end must fail
	// (and the failure address is the first unmapped byte).
	err := s.Write(0x1ff8, make([]byte, 16))
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if f.Addr != 0x2000 {
		t.Fatalf("fault at %#x, want 0x2000", f.Addr)
	}
	// Peek has the same boundary behavior.
	if err := s.Peek(0x1ff8, make([]byte, 16)); err == nil {
		t.Fatal("Peek across unmapped boundary succeeded")
	}
}
