package mem

import (
	"bytes"
	"errors"
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

func TestUintRoundTrip(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{1, 2, 4, 8} {
		v := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		if size == 8 {
			v = 0x1122334455667788
		}
		if err := s.WriteUint(0x1010, v, size); err != nil {
			t.Fatal(err)
		}
		got, err := s.ReadUint(0x1010, size)
		if err != nil || got != v {
			t.Fatalf("size %d: got %#x err %v, want %#x", size, got, err, v)
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
	for _, pg := range s.pages {
		if pg.data != nil {
			n++
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
