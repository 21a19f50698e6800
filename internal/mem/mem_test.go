package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestMapReadWrite(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1000, 2*PageSize, PermRW); err != nil {
		t.Fatalf("Map: %v", err)
	}
	want := []byte("hello, world")
	if err := s.Write(0x1ffa, want); err != nil { // straddles a page boundary
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(want))
	if err := s.Read(0x1ffa, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestUnmappedFaults(t *testing.T) {
	s := NewSpace()
	err := s.Read(0x5000, make([]byte, 4))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("Read of unmapped: %v, want *Fault", err)
	}
	if f.Kind != AccessRead || f.Addr != 0x5000 {
		t.Fatalf("fault = %+v", f)
	}
	if err := s.Write(0x5000, []byte{1}); err == nil {
		t.Fatal("Write of unmapped succeeded")
	}
}

func TestPermissionEnforcement(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1000, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0x1000, []byte{1}); err == nil {
		t.Fatal("write to read-only page succeeded")
	}
	if err := s.Read(0x1000, make([]byte, 1)); err != nil {
		t.Fatalf("read of read-only page failed: %v", err)
	}
	// PROT_NONE blocks both.
	if err := s.Protect(0x1000, PageSize, PermNone); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(0x1000, make([]byte, 1)); err == nil {
		t.Fatal("read of PROT_NONE page succeeded")
	}
	// Peek/Poke bypass permissions but not mappings.
	if err := s.Poke(0x1000, []byte{7}); err != nil {
		t.Fatalf("Poke: %v", err)
	}
	b := make([]byte, 1)
	if err := s.Peek(0x1000, b); err != nil || b[0] != 7 {
		t.Fatalf("Peek: %v, b=%v", err, b)
	}
	if err := s.Peek(0x9000, b); err == nil {
		t.Fatal("Peek of unmapped page succeeded")
	}
}

func TestProtectIsAtomic(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	// Second page of the range is unmapped: nothing may change.
	if err := s.Protect(0x1000, 2*PageSize, PermNone); err == nil {
		t.Fatal("Protect spanning unmapped page succeeded")
	}
	if p, _ := s.PermAt(0x1000); p != PermRW {
		t.Fatalf("perm changed by failed Protect: %v", p)
	}
}

func TestMapAlignmentAndRemap(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1001, PageSize, PermRW); err == nil {
		t.Fatal("unaligned Map succeeded")
	}
	if err := s.Map(0x1000, 1, PermRW); err != nil { // rounds to one page
		t.Fatal(err)
	}
	if err := s.Write(0x1000, []byte{42}); err != nil {
		t.Fatal(err)
	}
	// Re-mapping keeps contents, changes permissions.
	if err := s.Map(0x1000, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if err := s.Read(0x1000, b); err != nil || b[0] != 42 {
		t.Fatalf("read after remap: %v %v", err, b)
	}
	if err := s.Unmap(0x1000, PageSize); err != nil {
		t.Fatal(err)
	}
	if s.Mapped(0x1000) {
		t.Fatal("page still mapped after Unmap")
	}
}

// TestUintRoundTrip: every width from 1 to 8 round-trips inside a page,
// at its last bytes and across into the next page, and only the low size
// bytes of the value are stored.
func TestUintRoundTrip(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1000, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for size := int64(1); size <= 8; size++ {
		v := uint64(0x8877665544332211) >> (64 - 8*size)
		high := ^uint64(0) << (8*size - 1) << 1 // the bits above the width
		for _, addr := range []uint64{0x1010, 0x2000 - uint64(size), 0x2000 - uint64(size) + 1} {
			if err := s.WriteUint(addr, v|high, size); err != nil {
				t.Fatal(err)
			}
			got, err := s.ReadUint(addr, size)
			if err != nil || got != v {
				t.Fatalf("size %d at %#x: got %#x err %v, want %#x", size, addr, got, err, v)
			}
		}
	}
}

func TestReadCString(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0x1000, []byte("path/to/file\x00junk")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadCString(0x1000, 64)
	if err != nil || got != "path/to/file" {
		t.Fatalf("ReadCString = %q, %v", got, err)
	}
	if _, err := s.ReadCString(0x1000, 4); err == nil {
		t.Fatal("unterminated string within max succeeded")
	}
}

func TestRegionsCoalesce(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1000, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(0x3000, PageSize, PermRX); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(0x5000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	rs := s.Regions()
	if len(rs) != 3 {
		t.Fatalf("Regions = %+v, want 3 entries", rs)
	}
	if rs[0].Addr != 0x1000 || rs[0].Size != 2*PageSize || rs[0].Perm != PermRW {
		t.Fatalf("first region = %+v", rs[0])
	}
	if rs[1].Perm != PermRX {
		t.Fatalf("second region = %+v", rs[1])
	}
}

func TestPermString(t *testing.T) {
	if got := PermRWX.String(); got != "rwx" {
		t.Fatalf("PermRWX = %q", got)
	}
	if got := PermNone.String(); got != "---" {
		t.Fatalf("PermNone = %q", got)
	}
	if got := PermRX.String(); got != "r-x" {
		t.Fatalf("PermRX = %q", got)
	}
}

// Property: any byte sequence written at any in-range offset reads back
// identically, regardless of page straddling.
func TestWriteReadProperty(t *testing.T) {
	s := NewSpace()
	const base, npages = 0x10000, 8
	if err := s.Map(base, npages*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4*PageSize {
			data = data[:4*PageSize]
		}
		addr := uint64(base) + uint64(off)%(3*PageSize)
		if err := s.Write(addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := s.Read(addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReadUint(WriteUint(v)) == v masked to the width.
func TestUintProperty(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1000, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	f := func(v uint64, szSel uint8, off uint16) bool {
		size := []int64{1, 2, 4, 8}[szSel%4]
		addr := 0x1000 + uint64(off)%PageSize
		if err := s.WriteUint(addr, v, size); err != nil {
			return false
		}
		got, err := s.ReadUint(addr, size)
		if err != nil {
			return false
		}
		want := v
		if size < 8 {
			want = v & (1<<(8*size) - 1)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// backed counts the pages that have host memory behind them.
func (s *Space) backed() int {
	n := 0
	for _, r := range s.regions {
		for _, pg := range r.pages {
			if pg.data != nil {
				n++
			}
		}
	}
	return n
}

func TestSpaceDemandZero(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x100000, 1<<22, PermRW); err != nil { // a shadow-sized region
		t.Fatal(err)
	}
	if n := s.backed(); n != 0 {
		t.Fatalf("Map backed %d pages, want 0", n)
	}
	// Reads of untouched pages clear the caller's buffer and back nothing.
	buf := bytes.Repeat([]byte{0xee}, 3*PageSize)
	if err := s.Read(0x100800, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatal("read of untouched pages is not zero")
	}
	if err := s.Peek(0x180000, buf[:8]); err != nil {
		t.Fatal(err)
	}
	if n := s.backed(); n != 0 {
		t.Fatalf("reads backed %d pages, want 0", n)
	}
	// A write straddling a boundary backs exactly the two pages it touches;
	// the rest of each page still reads as zero.
	if err := s.Write(0x101ffc, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := s.Poke(0x1ff000, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if n := s.backed(); n != 3 {
		t.Fatalf("writes backed %d pages, want 3", n)
	}
	got := make([]byte, 16)
	if err := s.Read(0x101ff8, got); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0}; !bytes.Equal(got, want) {
		t.Fatalf("read back %v, want %v", got, want)
	}
	// Mapping over backed pages keeps their contents; unmapping and mapping
	// again gives fresh zero pages.
	if err := s.Map(0x101000, 2*PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(0x101ffc, got[:4]); err != nil || !bytes.Equal(got[:4], []byte{1, 2, 3, 4}) {
		t.Fatalf("contents after remap: %v, %v", got[:4], err)
	}
	if err := s.Unmap(0x101000, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(0x101000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(0x101ffc, got[:4]); err != nil || !bytes.Equal(got[:4], make([]byte, 4)) {
		t.Fatalf("contents after unmap+map: %v, %v", got[:4], err)
	}
}

// TestWordAccessFastPath: a word read of a demand-zero page returns 0 and
// leaves the page without backing, and on a page that has backing the
// four word accessors allocate nothing.
func TestWordAccessFastPath(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1000, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for size := int64(1); size <= 8; size++ {
		if v, err := s.ReadUint(0x1ffc, size); err != nil || v != 0 {
			t.Fatalf("size %d: ReadUint of a demand-zero page = %#x, %v", size, v, err)
		}
		if v, err := s.PeekUint(0x2000, size); err != nil || v != 0 {
			t.Fatalf("size %d: PeekUint of a demand-zero page = %#x, %v", size, v, err)
		}
	}
	if n := s.backed(); n != 0 {
		t.Fatalf("word reads backed %d pages, want 0", n)
	}
	if err := s.WriteUint(0x1000, 1, 8); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for size := int64(1); size <= 8; size++ {
			if s.WriteUint(0x1100, 1, size) != nil || s.PokeUint(0x1200, 2, size) != nil {
				t.Fatal("word write failed")
			}
			if _, err := s.ReadUint(0x1100, size); err != nil {
				t.Fatal(err)
			}
			if _, err := s.PeekUint(0x1200, size); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("word accesses on a backed page: %v allocations per run, want 0", allocs)
	}
}

func TestSpaceMapCap(t *testing.T) {
	s := NewSpace()
	capFault := func(err error, addr uint64) {
		t.Helper()
		var f *Fault
		if !errors.As(err, &f) || f.Kind != AccessMap || f.Addr != addr {
			t.Fatalf("err = %v, want an AccessMap fault at %#x", err, addr)
		}
	}
	// A guest-sized length past the cap fails at once, mapping nothing.
	capFault(s.Map(0x7f00_0000_0000, 1<<40, PermRW), 0x7f00_0000_0000)
	if len(s.Regions()) != 0 {
		t.Fatalf("failed Map left %v", s.Regions())
	}
	// Fill the space to one page below the cap.
	if err := s.Map(0, MaxMapped-PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	// Two more pages cross the cap; the one page that fits is not applied
	// by the failed call.
	capFault(s.Map(MaxMapped, 2*PageSize, PermRW), MaxMapped)
	if s.Mapped(MaxMapped) {
		t.Fatal("failed Map mapped a page")
	}
	// Mapping over pages already counted adds nothing and succeeds.
	if err := s.Map(PageSize, 1<<20, PermRead); err != nil {
		t.Fatalf("remap at the cap: %v", err)
	}
	// Overlapping one fresh page still fits.
	if err := s.Map(MaxMapped-2*PageSize, 2*PageSize, PermRW); err != nil {
		t.Fatalf("map of the last page: %v", err)
	}
	capFault(s.Map(MaxMapped+PageSize, PageSize, PermRW), MaxMapped+PageSize)
	// Ranges that wrap the top of the address space fail too.
	top := uint64(1<<64 - PageSize)
	capFault(s.Map(top, 2*PageSize, PermRW), top)
	capFault(s.Unmap(top, 2*PageSize), top)
	capFault(s.Protect(top, 2*PageSize, PermRW), top)
}

func TestSpaceHugeUnmapAndProtect(t *testing.T) {
	s := NewSpace()
	for _, a := range []uint64{0x1000, 0x2000, 1 << 50} {
		if err := s.Map(a, PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	// Guest-sized lengths: both calls cost the pages mapped, not 2^28
	// iterations over the range.
	err := s.Protect(0x1000, 1<<40, PermRead)
	var f *Fault
	if !errors.As(err, &f) || f.Addr != 0x3000 {
		t.Fatalf("Protect = %v, want a fault at the first unmapped page 0x3000", err)
	}
	if p, _ := s.PermAt(0x1000); p != PermRW {
		t.Fatalf("failed Protect changed perm to %v", p)
	}
	if err := s.Unmap(0, 1<<40); err != nil {
		t.Fatal(err)
	}
	if s.Mapped(0x1000) || s.Mapped(0x2000) || !s.Mapped(1<<50) {
		t.Fatalf("after Unmap(0, 1<<40): %v", s.Regions())
	}
}

func TestSpaceRegionMergeSplit(t *testing.T) {
	s := NewSpace()
	mark := func(a uint64) {
		t.Helper()
		if err := s.Poke(a, []byte{byte(a >> 12)}); err != nil {
			t.Fatal(err)
		}
	}
	// check compares the space with the regions it should hold, one marker
	// byte per listed page (written by mark) and the permission of every
	// page, and counts the internal regions.
	check := func(step string, regions int, want []Region, marked ...uint64) {
		t.Helper()
		if got := s.Regions(); !slices.Equal(got, want) {
			t.Fatalf("%s: Regions = %+v, want %+v", step, got, want)
		}
		if len(s.regions) != regions {
			t.Fatalf("%s: %d internal regions, want %d", step, len(s.regions), regions)
		}
		for _, a := range marked {
			b := make([]byte, 1)
			if err := s.Peek(a, b); err != nil || b[0] != byte(a>>12) {
				t.Fatalf("%s: marker at %#x = %v, %v", step, a, b, err)
			}
		}
		for _, r := range want {
			for a := r.Addr; a < r.Addr+r.Size; a += PageSize {
				if p, ok := s.PermAt(a + 8); !ok || p != r.Perm {
					t.Fatalf("%s: PermAt(%#x) = %v, %v; want %v", step, a+8, p, ok, r.Perm)
				}
			}
		}
	}
	mapped := func(addr, size uint64, perm Perm) {
		t.Helper()
		if err := s.Map(addr, size, perm); err != nil {
			t.Fatal(err)
		}
	}
	mapped(0x10000, 2*PageSize, PermRW)
	mapped(0x20000, 2*PageSize, PermRX)
	mark(0x10000)
	mark(0x11000)
	mark(0x21000)
	check("two regions", 2, []Region{{0x10000, 0x2000, PermRW}, {0x20000, 0x2000, PermRX}}, 0x10000, 0x11000, 0x21000)

	// Touching below and above merges; the pages keep their contents.
	mapped(0xf000, PageSize, PermRead)
	mapped(0x22000, PageSize, PermRW)
	check("below and above", 2, []Region{{0xf000, 0x1000, PermRead}, {0x10000, 0x2000, PermRW}, {0x20000, 0x2000, PermRX}, {0x22000, 0x1000, PermRW}},
		0x10000, 0x11000, 0x21000)

	// A mapping that overlaps one region and touches the next bridges them.
	mapped(0x11000, 0xf000, PermRW)
	check("bridge", 1, []Region{{0xf000, 0x1000, PermRead}, {0x10000, 0x10000, PermRW}, {0x20000, 0x2000, PermRX}, {0x22000, 0x1000, PermRW}},
		0x10000, 0x11000, 0x21000)

	// Unmapping a middle page splits the region and faults there.
	if err := s.Unmap(0x11000, PageSize); err != nil {
		t.Fatal(err)
	}
	check("split", 2, []Region{{0xf000, 0x1000, PermRead}, {0x10000, 0x1000, PermRW}, {0x12000, 0xe000, PermRW}, {0x20000, 0x2000, PermRX}, {0x22000, 0x1000, PermRW}},
		0x10000, 0x21000)
	if err := s.Peek(0x11000, make([]byte, 1)); err == nil {
		t.Fatal("Peek of the unmapped middle page succeeded")
	}
	if _, ok := s.PermAt(0x11000); ok || s.Mapped(0x11fff) {
		t.Fatal("the unmapped middle page is still mapped")
	}

	// Mapping the hole again extends the split's left half into the right
	// half's addresses: a fresh zero page, and the right half intact.
	mark(0x12000)
	mapped(0x11000, PageSize, PermRW)
	check("rejoin", 1, []Region{{0xf000, 0x1000, PermRead}, {0x10000, 0x10000, PermRW}, {0x20000, 0x2000, PermRX}, {0x22000, 0x1000, PermRW}},
		0x10000, 0x12000, 0x21000)
	if v, err := s.PeekUint(0x11000, 1); err != nil || v != 0 {
		t.Fatalf("remapped page reads %#x, %v; want a zero page", v, err)
	}

	// Appending to a split's left half without reaching the right half.
	if err := s.Unmap(0x13000, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	mark(0x15000)
	mapped(0x13000, PageSize, PermRead)
	check("append to left half", 2, []Region{{0xf000, 0x1000, PermRead}, {0x10000, 0x3000, PermRW}, {0x13000, 0x1000, PermRead}, {0x15000, 0xb000, PermRW}, {0x20000, 0x2000, PermRX}, {0x22000, 0x1000, PermRW}},
		0x10000, 0x12000, 0x15000, 0x21000)
	if s.Mapped(0x14000) {
		t.Fatal("append to the left half mapped the gap")
	}

	// Unmapping across both halves trims the head of one and the tail of
	// the other.
	if err := s.Unmap(0x12000, 0x4000); err != nil {
		t.Fatal(err)
	}
	check("trim", 2, []Region{{0xf000, 0x1000, PermRead}, {0x10000, 0x2000, PermRW}, {0x16000, 0xa000, PermRW}, {0x20000, 0x2000, PermRX}, {0x22000, 0x1000, PermRW}},
		0x10000, 0x21000)
}

func TestSpaceMappedCountExact(t *testing.T) {
	s := NewSpace()
	count := func(step string) uint64 {
		t.Helper()
		var n uint64
		for _, r := range s.regions {
			n += uint64(len(r.pages))
		}
		if n != s.mapped {
			t.Fatalf("%s: mapped counter %d, regions hold %d pages", step, s.mapped, n)
		}
		return n
	}
	// brk-style growth, one page at a time at the heap's tail.
	const heap = 0x1000_0000
	for k := uint64(0); k < 1000; k++ {
		if err := s.Map(heap+k*PageSize, PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	if n := count("brk"); n != 1000 || len(s.regions) != 1 {
		t.Fatalf("brk growth: %d pages in %d regions, want 1000 in 1", n, len(s.regions))
	}
	// Fill the space to the cap, away from the heap.
	const far = 0x7f00_0000_0000
	if err := s.Map(far, MaxMapped-1000*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if n := count("full"); n != maxPages {
		t.Fatalf("full space maps %d pages, want %d", n, maxPages)
	}
	for k := uint64(0); k < 200; k++ {
		// Unmap a range that is partly mapped (k%4+1 pages at the heap's
		// tail) and partly not.
		free := k%4 + 1
		tail := heap + (1000-free)*PageSize
		if err := s.Unmap(tail, (free+3)*PageSize); err != nil {
			t.Fatal(err)
		}
		if n := count("unmap"); n != maxPages-free {
			t.Fatalf("cycle %d: %d pages after unmapping %d, want %d", k, n, free, maxPages-free)
		}
		// Remapping over counted pages adds nothing.
		if err := s.Map(far+k*PageSize, 2*PageSize, PermRead); err != nil {
			t.Fatalf("cycle %d: remap at the cap: %v", k, err)
		}
		// One fresh page more than was freed must not fit.
		err := s.Map(tail, (free+1)*PageSize, PermRW)
		var f *Fault
		if !errors.As(err, &f) || f.Kind != AccessMap {
			t.Fatalf("cycle %d: map past the cap = %v, want an AccessMap fault", k, err)
		}
		// Exactly the freed pages fit again, here or in a fresh region.
		at := tail
		if k%2 == 1 {
			at = 1 << 40
		}
		if err := s.Map(at, free*PageSize, PermRW); err != nil {
			t.Fatalf("cycle %d: map of the %d freed pages: %v", k, free, err)
		}
		if n := count("refill"); n != maxPages {
			t.Fatalf("cycle %d: %d pages after refill, want %d", k, n, maxPages)
		}
		if at != tail {
			if err := s.Unmap(at, free*PageSize); err != nil {
				t.Fatal(err)
			}
			if err := s.Map(tail, free*PageSize, PermRW); err != nil {
				t.Fatalf("cycle %d: heap refill: %v", k, err)
			}
		}
	}
	if len(s.regions) != 2 {
		t.Fatalf("after the cycles: %d regions, want the heap and the far region", len(s.regions))
	}
}

// TestSpaceUnmapReleasesArrays keeps a guest that maps large regions and
// unmaps all but a page or two of each from pinning the regions' page
// arrays: what the host holds must follow the pages mapped.
func TestSpaceUnmapReleasesArrays(t *testing.T) {
	// A head that stays in its array keeps no entry of the tail that was
	// copied out of it.
	s := NewSpace()
	if err := s.Map(0, 8*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 8*PageSize; a += PageSize {
		if err := s.Poke(a, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Unmap(6*PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if head := s.regions[0].pages; len(head) != 6 || slices.ContainsFunc(head[6:cap(head)], func(pg page) bool { return pg != page{} }) {
		t.Fatalf("head after the split: %d pages, slack %+v", len(head), head[len(head):cap(head)])
	}
	if err := s.Unmap(0, 8*PageSize); err != nil {
		t.Fatal(err)
	}

	const n = 4096 // pages per mapping
	const rounds = 256
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := uint64(0); k < rounds; k++ {
		// Fresh addresses each round, as mmap's advancing cursor gives.
		a := 0x1000_0000 + k*(n+1)*PageSize
		if err := s.Map(a, n*PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
		// Keep the last page, the first page, or both.
		var lo, hi uint64
		switch k % 3 {
		case 0:
			lo, hi = 0, n-1
		case 1:
			lo, hi = 1, n
		default:
			lo, hi = 1, n-1
		}
		if err := s.Unmap(a+lo*PageSize, (hi-lo)*PageSize); err != nil {
			t.Fatal(err)
		}
		var held uint64
		for _, r := range s.regions {
			held += uint64(cap(r.pages))
		}
		if held > 2*s.mapped {
			t.Fatalf("round %d: regions hold arrays of %d pages for %d mapped", k, held, s.mapped)
		}
	}
	// A piece that stayed in its old array would pin 4096 page entries
	// (64 KiB) a round, 16 MiB in all, whatever cap reports for it.
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 4<<20 {
		t.Fatalf("heap grew by %d bytes for %d mapped pages", grew, s.mapped)
	}
	runtime.KeepAlive(s)
}

// dirtyList returns a free list of n pages filled with b, as a guest that
// wrote every byte of its pages would leave it. It also holds two page
// arrays of every class up to 32 pages and a region slice, each filled
// with entries that point at a page of b and allow everything, so a Space
// that trusted a released array or region slice to be clear would show
// b bytes, backed pages or mappings where it has none.
func dirtyList(n int, b byte) *FreeList {
	l := &FreeList{}
	dirty := new([PageSize]byte)
	for i := range dirty {
		dirty[i] = b
	}
	for range n {
		p := new([PageSize]byte)
		*p = *dirty
		l.pages = append(l.pages, p)
	}
	for k := range 6 {
		for range 2 {
			a := make([]page, 1<<k)
			for i := range a {
				a[i] = page{data: dirty, perm: PermRWX}
			}
			l.arrays[k] = append(l.arrays[k], a[:0])
		}
	}
	l.regions = make([]region, 4)
	for i := range l.regions {
		l.regions[i] = region{addr: uint64(i) * 64 * PageSize, pages: []page{{data: dirty, perm: PermRWX}}}
	}
	l.regions = l.regions[:0]
	return l
}

// TestSpaceRecyclesArrays: Unmap and Release hand every page array a
// Space drops, and its region slice, to the free list cleared, so no
// backing pointer survives outside the page stack; and a Space built from
// that list maps, writes, splits and releases the same layout again
// without allocating anything but itself.
func TestSpaceRecyclesArrays(t *testing.T) {
	free := &FreeList{}
	layout := func(s *Space) {
		for _, m := range []struct {
			addr, pages uint64
		}{{0x10000, 3}, {0x40000, 4}, {0x13000, 2}, {0x80000, 1024}, {0x7f0000, 5}} {
			if err := s.Map(m.addr, m.pages*PageSize, PermRW); err != nil {
				t.Fatal(err)
			}
			if err := s.PokeUint(m.addr+8, 0x55, 8); err != nil {
				t.Fatal(err)
			}
		}
		// Split the 1024-page region, dropping a backed page; copy a small
		// head out of a large array.
		if err := s.PokeUint(0x80000+105*PageSize, 0x66, 8); err != nil {
			t.Fatal(err)
		}
		if err := s.Unmap(0x80000+100*PageSize, 10*PageSize); err != nil {
			t.Fatal(err)
		}
		if err := s.Unmap(0x7f0000+PageSize, 4*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSpaceFrom(free)
	layout(s)
	backed := s.backed()
	s.Release()
	if got := free.Len(); got != backed+1 {
		t.Fatalf("free list holds %d pages, want the %d backed at Release and the one Unmap dropped", got, backed)
	}
	if free.Arrays() == 0 {
		t.Fatal("Release kept no page array")
	}
	for k, c := range free.arrays {
		for _, a := range c {
			if cap(a) != 1<<k || slices.ContainsFunc(a[:cap(a)], func(pg page) bool { return pg != page{} }) {
				t.Fatalf("class %d holds an array of capacity %d that is not clear", k, cap(a))
			}
		}
	}
	if cap(free.regions) == 0 || slices.ContainsFunc(free.regions[:cap(free.regions)], func(r region) bool { return r.addr != 0 || r.pages != nil }) {
		t.Fatalf("region slice not returned clear: %+v", free.regions[:cap(free.regions)])
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	cycle := func() {
		s := NewSpaceFrom(free)
		layout(s)
		s.Release()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 1 {
		t.Fatalf("a warm map/write/unmap/release cycle allocates %.1f objects, want only the Space", allocs)
	}
}

// TestSpaceReleaseFaults: Release empties the Space, so every accessor
// faults on what was mapped, and it hands exactly the backed pages to the
// free list (a Space without one just drops them).
func TestSpaceReleaseFaults(t *testing.T) {
	for _, free := range []*FreeList{nil, {}} {
		s := NewSpaceFrom(free)
		if err := s.Map(0x10000, 4*PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
		if err := s.Map(0x40000, 2*PageSize, PermRX); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(0x10ffc, []byte("abcdefgh")); err != nil { // backs two pages
			t.Fatal(err)
		}
		if err := s.PokeUint(0x40010, 7, 8); err != nil {
			t.Fatal(err)
		}
		backed := s.backed()
		s.Release()
		if free != nil && free.Len() != backed {
			t.Fatalf("free list holds %d pages after Release, want the %d backed", free.Len(), backed)
		}
		if r := s.Regions(); len(r) != 0 {
			t.Fatalf("Regions after Release = %+v, want none", r)
		}
		for _, a := range []uint64{0x10000, 0x10ffc, 0x13ff8, 0x40010} {
			buf := make([]byte, 8)
			if s.Mapped(a) {
				t.Errorf("%#x still mapped after Release", a)
			}
			errs := map[string]error{
				"Read":  s.Read(a, buf),
				"Write": s.Write(a, buf),
				"Peek":  s.Peek(a, buf),
				"Poke":  s.Poke(a, buf),
			}
			_, errs["ReadUint"] = s.ReadUint(a, 8)
			errs["WriteUint"] = s.WriteUint(a, 1, 8)
			_, errs["PeekUint"] = s.PeekUint(a, 8)
			errs["PokeUint"] = s.PokeUint(a, 1, 8)
			_, errs["ReadCString"] = s.ReadCString(a, 16)
			for name, err := range errs {
				var f *Fault
				if !errors.As(err, &f) || f.Addr != a {
					t.Errorf("%s(%#x) after Release = %v, want a fault at that address", name, a, err)
				}
			}
		}
		if n := s.backed(); n != 0 {
			t.Fatalf("faulting writes backed %d pages", n)
		}
	}
}

// TestSpaceRecycledPageReadsZero: a page taken from the free list is
// cleared before use, so partial and word writes into it leave every
// other byte reading zero, never the previous guest's bytes.
func TestSpaceRecycledPageReadsZero(t *testing.T) {
	const pages = 6
	free := dirtyList(pages, 0xaa)
	s := NewSpaceFrom(free)
	if err := s.Map(0x20000, pages*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, pages*PageSize)
	put := func(a uint64, b []byte) { copy(want[a-0x20000:], b) }
	// One of each first-touch path: Write and Poke (access), a page-
	// crossing Write, and the four word widths of WriteUint and PokeUint.
	if err := s.Write(0x20100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	put(0x20100, []byte{1, 2, 3})
	if err := s.Poke(0x21ffe, []byte{4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	put(0x21ffe, []byte{4, 5, 6, 7})
	if err := s.WriteUint(0x23008, 0x0102, 2); err != nil {
		t.Fatal(err)
	}
	put(0x23008, []byte{2, 1})
	if err := s.PokeUint(0x24ff8, 0x0807060504030201, 8); err != nil {
		t.Fatal(err)
	}
	put(0x24ff8, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if err := s.PokeUint(0x25000, 9, 1); err != nil {
		t.Fatal(err)
	}
	put(0x25000, []byte{9})
	if n := free.Len(); n != pages-s.backed() {
		t.Fatalf("free list holds %d pages after %d first touches, want %d", n, s.backed(), pages-s.backed())
	}
	got := make([]byte, pages*PageSize)
	if err := s.Peek(0x20000, got); err != nil {
		t.Fatal(err)
	}
	if i := slices.IndexFunc(got, func(b byte) bool { return b == 0xaa }); i >= 0 || !bytes.Equal(got, want) {
		t.Fatalf("recycled pages read back wrong (first stale byte at %d)", i)
	}
	for off := uint64(0); off < pages*PageSize; off += 4 {
		w := uint64(binary.LittleEndian.Uint32(want[off:]))
		if v, err := s.ReadUint(0x20000+off, 4); err != nil || v != w {
			t.Fatalf("ReadUint(%#x) = %#x, %v; want %#x", 0x20000+off, v, err, w)
		}
	}
}
