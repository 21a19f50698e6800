package shadow

import (
	"testing"

	"bastion/internal/mem"
)

// Guest memory the CtxWriteMem tests record from: dataPages read-write
// pages at dataBase, then an unmapped page, then one read-only page.
const (
	dataBase  = 0x50_0000
	dataPages = 4
	roPage    = dataBase + (dataPages+1)*mem.PageSize
)

func newWriteMemRuntime(t *testing.T) (*Runtime, *mem.Space) {
	t.Helper()
	s := newSpace(t)
	if err := s.Map(dataBase, dataPages*mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(roPage, mem.PageSize, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, dataPages*mem.PageSize)
	for i := range fill {
		fill[i] = byte(i*13 + i>>8)
	}
	if err := s.Poke(dataBase, fill); err != nil {
		t.Fatal(err)
	}
	if err := s.Poke(roPage+100, []byte("read-only bytes")); err != nil {
		t.Fatal(err)
	}
	return NewRuntime(s), s
}

// TestCtxWriteMemMatchesEncodeValue: the entry CtxWriteMem records for a
// region is EncodeValue of the region's bytes, for words, regions that
// cross pages and the digest's chunks, and regions on read-only pages;
// a region that runs into or starts in unmapped memory records nothing.
func TestCtxWriteMemMatchesEncodeValue(t *testing.T) {
	r, s := newWriteMemRuntime(t)
	gap := uint64(dataBase + dataPages*mem.PageSize)
	for _, addr := range []uint64{dataBase + 8, dataBase + mem.PageSize - 5, dataBase + 2*mem.PageSize - 300, gap - 700, gap - 4, gap, roPage + 100} {
		for _, size := range []int64{0, 1, 3, 8, 9, 16, 511, 512, 513, 1500, mem.PageSize + 1, 2*mem.PageSize + 77} {
			want := make([]byte, size)
			wantErr := s.Peek(addr, want)
			if err := r.values.Put(addr, 0xdead, 0xbeef); err != nil {
				t.Fatal(err)
			}
			if err := r.CtxWriteMem(nil, addr, size); err != nil {
				t.Fatal(err)
			}
			v, meta, ok, err := r.values.Get(addr)
			if err != nil || !ok {
				t.Fatalf("%#x+%d: entry lost: %v", addr, size, err)
			}
			if wantErr != nil {
				if v != 0xdead || meta != 0xbeef {
					t.Fatalf("%#x+%d: unreadable region recorded (%#x, %#x)", addr, size, v, meta)
				}
				continue
			}
			if wv, wm := EncodeValue(want); v != wv || meta != wm {
				t.Fatalf("%#x+%d: recorded (%#x, %#x), EncodeValue says (%#x, %#x)", addr, size, v, meta, wv, wm)
			}
		}
	}
}

// TestCtxWriteMemAllocationFree: recording a word or digesting a region
// that crosses pages allocates nothing on the host.
func TestCtxWriteMemAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r, _ := newWriteMemRuntime(t)
	for _, size := range []int64{4, 8, 24, 3 * mem.PageSize} {
		addr := uint64(dataBase + mem.PageSize - 2)
		write := func() {
			if err := r.CtxWriteMem(nil, addr, size); err != nil {
				t.Fatal(err)
			}
		}
		write()
		if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
			t.Fatalf("CtxWriteMem of %d bytes allocates %.1f objects, want 0", size, allocs)
		}
	}
}
