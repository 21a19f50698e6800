// Package mem implements the sparse, paged virtual address space used by
// simulated guest processes. It provides mmap/mprotect/munmap semantics with
// per-page permissions, checked guest accesses, and privileged (kernel/
// ptrace-style) accesses that bypass permissions — the access path the
// BASTION monitor uses via process_vm_readv.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// Perm is a page-permission bitmask.
type Perm uint8

// Permission bits, mirroring PROT_READ/PROT_WRITE/PROT_EXEC.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec

	PermNone Perm = 0
	PermRW        = PermRead | PermWrite
	PermRX        = PermRead | PermExec
	PermRWX       = PermRead | PermWrite | PermExec
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// AccessKind describes the faulting operation in a Fault.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessMap
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessMap:
		return "map"
	}
	return "access"
}

// Fault is a simulated memory fault (SIGSEGV analog).
type Fault struct {
	Addr uint64
	Kind AccessKind
	Why  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: fault: %s at %#x: %s", f.Kind, f.Addr, f.Why)
}

// page is one mapped page. Pages are demand-zero: data stays nil until the
// first Write or Poke into the page, and a read of a page without data
// sees zeros. Mapping the 4 MiB shadow region or the stack therefore costs
// a 16-byte page entry per page, not 4 KiB of host memory per page.
//
// A backing's lifecycle is demand-zero (nil) → backed on the first write
// → released to the Space's FreeList by Unmap or Release → cleared and
// backed again on a later first write, in this Space or another. No
// method hands out a slice that aliases a backing beyond the call (reads
// copy out; PeekEach lends one only while its visitor runs). So once
// Unmap or Release returns, nothing outside the FreeList refers to the
// pages it took, and reuse cannot leak one guest's bytes to another.
type page struct {
	data *[PageSize]byte
	perm Perm
}

// region is a maximal run of contiguous mapped pages: pages[i] is the page
// at addr + i*PageSize. A region is never empty.
type region struct {
	addr  uint64
	pages []page
}

func (r *region) end() uint64 { return r.addr + uint64(len(r.pages))*PageSize }

// MaxMapped is the most address space, in bytes, one Space maps at a time:
// 1 GiB, or 262,144 pages. The simulated guests map a few MiB (the 4 MiB
// shadow region, the 1 MiB stack, heap and anonymous regions). The cap
// keeps a guest-chosen mmap, brk or mremap length from driving the host
// through billions of page entries: Map fails with a *Fault instead.
const MaxMapped = 1 << 30

const maxPages = MaxMapped / PageSize

// FreeList holds what released Spaces leave behind, for Spaces to use
// before they allocate: page backings for first writes, the page arrays
// regions index them through, and one region slice. Like a Space, it
// belongs to one goroutine at a time and has no lock: give each goroutine
// that runs guests one after another its own list, so what one guest
// releases serves the next guest. The zero value is an empty list. A list
// never shrinks on its own; drop it to free what it holds.
//
// Everything enters the list cleared: a released array holds no backing
// pointer, so the backings on the page stack are the only guest memory
// the list keeps.
type FreeList struct {
	pages []*[PageSize]byte
	// arrays[k] holds released page arrays of capacity 1<<k: a list
	// makes every array it hands out with a power-of-two capacity, so
	// taking one of the length a region needs is a pop.
	arrays  [arrayClasses][][]page
	regions []region
}

// arrayClasses is the number of page-array size classes: capacities 1 to
// maxPages, in powers of two.
const arrayClasses = 19

// Len returns the number of pages the list holds.
func (l *FreeList) Len() int { return len(l.pages) }

// Arrays returns the number of page arrays the list holds.
func (l *FreeList) Arrays() int {
	n := 0
	for _, c := range l.arrays {
		n += len(c)
	}
	return n
}

// take returns a zeroed page backing: the last released one, cleared, or
// a new one when l is nil or empty.
func (l *FreeList) take() *[PageSize]byte {
	if l == nil || len(l.pages) == 0 {
		return new([PageSize]byte)
	}
	n := len(l.pages) - 1
	p := l.pages[n]
	l.pages[n] = nil
	l.pages = l.pages[:n]
	*p = [PageSize]byte{}
	return p
}

// release moves the backed pages of pgs onto the page stack. A nil list
// drops them.
func (l *FreeList) release(pgs []page) {
	if l == nil {
		return
	}
	for _, pg := range pgs {
		if pg.data != nil {
			l.pages = append(l.pages, pg.data)
		}
	}
}

// array returns a zeroed page array of length n. From a list it is a
// released array of the smallest power-of-two capacity that holds n, or
// a new one of that capacity; so an array never has more than twice the
// entries it needs, and regions hold at most about twice the pages mapped
// (see Unmap). Without a list it is a new array of exactly n.
func (l *FreeList) array(n int) []page {
	if l == nil {
		return make([]page, n)
	}
	k := bits.Len(uint(n - 1))
	c := &l.arrays[k]
	if last := len(*c) - 1; last >= 0 {
		a := (*c)[last]
		(*c)[last] = nil
		*c = (*c)[:last]
		clear(a[:cap(a)])
		return a[:n]
	}
	return make([]page, n, 1<<k)
}

// grow returns pgs extended with zero entries to length n, in a new array
// when pgs has no room; the old array goes back to l. A list's arrays
// double in capacity as they grow, so a brk-style heap grows in linear
// time either way.
func (l *FreeList) grow(pgs []page, n int) []page {
	if l == nil {
		return append(pgs, make([]page, n-len(pgs))...)
	}
	a := l.array(n)
	copy(a, pgs)
	l.putArray(pgs)
	return a
}

// clone returns a copy of pgs in an array from l.
func (l *FreeList) clone(pgs []page) []page {
	a := l.array(len(pgs))
	copy(a, pgs)
	return a
}

// putArray clears a page array no region uses any more and keeps it in
// the class of its capacity. The caller has already moved the backings it
// wants kept elsewhere. Only arrays a list made are kept; a class holds
// arrays of at most maxPages entries in all, so the list's arrays stay
// within what a few Spaces at the MaxMapped cap would need.
func (l *FreeList) putArray(a []page) {
	c := cap(a)
	if l == nil || c == 0 || c&(c-1) != 0 {
		return
	}
	k := bits.Len(uint(c - 1))
	if (len(l.arrays[k])+1)<<k > maxPages {
		return
	}
	a = a[:c]
	clear(a)
	l.arrays[k] = append(l.arrays[k], a[:0])
}

// Space is a sparse virtual address space. The zero value is not usable;
// call NewSpace or NewSpaceFrom.
//
// The mapped pages are kept as Linux keeps VMAs: a slice of regions sorted
// by address, non-overlapping and never adjacent, so two runs of pages that
// touch are always one region. An access finds its region through the
// region the last lookup found, then by binary search, and walks the
// region's consecutive pages without another lookup.
//
// A Space also keeps a word cache: two small direct-mapped tables of the
// backed pages ReadUint and WriteUint last found readable and writable.
// ReadUintCached and WriteUintCached answer from it without a lookup, and
// are small enough to inline into the interpreter's loop. Every word
// accessor consults it first: ReadUint and PeekUint the read table,
// WriteUint and PokeUint the write table. Only the checked ReadUint and
// WriteUint fill it on a miss, so a monitor's or runtime's Peek and Poke
// probes cannot evict the guest's own pages. Map, Unmap and Protect, the
// only places besides Release that change a page's permissions or drop
// its backing, drop the pages of their own range from both tables;
// Release clears them. A page without backing is never cached, so
// demand-zero reads and first-touch backing always take the checked path.
//
// A Space is not safe for concurrent use, not even by readers: every
// lookup writes the hint, and the word accessors fill the cache. Like
// vm.Machine, it belongs to one goroutine at a time.
type Space struct {
	regions []region
	hint    int       // index of the region the last lookup found
	mapped  uint64    // pages mapped, for the MaxMapped cap
	free    *FreeList // recycled backings for first writes; nil allocates
	// rd and wr cache backed pages whose permissions include PermRead
	// and PermWrite.
	rd, wr wordCache
}

// cacheSlots is the number of pages each word-cache table holds.
const cacheSlots = 16

// wordCache is a direct-mapped table of backed pages: the page numbered
// n sits in slot n%cacheSlots with tag n+1, so the zero table is empty.
// It holds the backings a page entry points to, not the entries, so a
// page array that Map grows or moves leaves it valid.
type wordCache struct {
	tag  [cacheSlots]uint64
	data [cacheSlots]*[PageSize]byte
}

// fill caches the backing of the page holding addr.
func (c *wordCache) fill(addr uint64, data *[PageSize]byte) {
	n := addr / PageSize
	c.tag[n%cacheSlots], c.data[n%cacheSlots] = n+1, data
}

// drop removes the pages in [addr, end) from the table. It costs one
// pass over the slots for a range of any length. Every change to a
// page's permissions or backing drops that page from both tables before
// it returns; the tables hold backings, not page entries, so pages
// outside the range stay valid.
func (c *wordCache) drop(addr, end uint64) {
	lo, n := addr/PageSize, (end-addr)/PageSize
	for i, t := range c.tag {
		if t-1-lo < n { // t-1 in [lo, lo+n); an empty slot's t-1 wraps above
			c.tag[i], c.data[i] = 0, nil
		}
	}
}

// drop removes the pages in [addr, end) from both word-cache tables.
func (s *Space) drop(addr, end uint64) {
	s.rd.drop(addr, end)
	s.wr.drop(addr, end)
}

// NewSpace returns an empty address space.
func NewSpace() *Space { return &Space{} }

// NewSpaceFrom returns an empty address space that takes its page
// backings, page arrays and region slice from free before it allocates,
// and returns them there on Unmap and Release. free must belong to the
// goroutine that uses the Space.
func NewSpaceFrom(free *FreeList) *Space {
	s := &Space{free: free}
	if free != nil {
		s.regions, free.regions = free.regions, nil
	}
	return s
}

// Release unmaps everything and moves every backed page, every page array
// and the region slice to the Space's FreeList (or drops them, without
// one). The Space is left empty, so every later access faults. Call it
// once the guest is gone and nothing will read its memory again. The
// word cache goes with the rest of the Space.
func (s *Space) Release() {
	if l := s.free; l != nil {
		for _, r := range s.regions {
			l.release(r.pages)
			l.putArray(r.pages)
		}
		clear(s.regions)
		if cap(s.regions) > cap(l.regions) {
			l.regions = s.regions[:0]
		}
	}
	*s = Space{free: s.free}
}

// RoundUp rounds a length up to a whole number of pages.
func RoundUp(n uint64) uint64 { return (n + PageSize - 1) &^ (PageSize - 1) }

// span returns the page-aligned end of [addr, addr+length); ok is false
// when the rounded range wraps past the top of the address space.
func span(addr, length uint64) (end uint64, ok bool) {
	n := RoundUp(length)
	end = addr + n
	return end, n >= length && end >= addr
}

// search returns the index of the first region that ends above a, or
// len(s.regions) if there is none.
func (s *Space) search(a uint64) int {
	lo, hi := 0, len(s.regions)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.regions[mid].end() <= a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lookup returns the region containing a, or nil.
func (s *Space) lookup(a uint64) *region {
	if h := s.hint; h < len(s.regions) {
		if r := &s.regions[h]; a-r.addr < uint64(len(r.pages))*PageSize {
			return r
		}
	}
	i := s.search(a)
	if i == len(s.regions) || s.regions[i].addr > a {
		return nil
	}
	s.hint = i
	return &s.regions[i]
}

// Map maps [addr, addr+length) with the given permissions. addr must be
// page-aligned. Mapping over an existing page replaces its permissions and
// keeps its contents (MAP_FIXED-over-existing semantics); callers that need
// fresh zero pages should Unmap first. A mapping that would take the space
// past MaxMapped fails before any page changes. The range merges with every
// region it overlaps or touches; growth at a region's tail is an amortized
// append, so a brk-style heap grows in linear time.
func (s *Space) Map(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned mapping"}
	}
	if length == 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "zero-length mapping"}
	}
	end, ok := span(addr, length)
	if !ok {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "mapping wraps the address space"}
	}
	n := (end - addr) / PageSize
	if n > maxPages {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "mapping exceeds the address-space cap"}
	}
	// Regions [i, j) overlap or touch [addr, end); count the pages they
	// already map inside it.
	i := s.search(addr)
	if i > 0 && s.regions[i-1].end() == addr {
		i--
	}
	j, have := i, uint64(0)
	for ; j < len(s.regions) && s.regions[j].addr <= end; j++ {
		r := &s.regions[j]
		if lo, hi := max(r.addr, addr), min(r.end(), end); lo < hi {
			have += (hi - lo) / PageSize
		}
	}
	if s.mapped+n-have > maxPages {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "mapping exceeds the address-space cap"}
	}
	s.drop(addr, end) // permissions of pages already mapped change
	s.mapped += n - have
	if i == j {
		pages := s.free.array(int(n))
		for k := range pages {
			pages[k].perm = perm
		}
		s.regions = slices.Insert(s.regions, i, region{addr: addr, pages: pages})
		s.hint = i
		return nil
	}
	first := &s.regions[i]
	start, stop := min(first.addr, addr), max(s.regions[j-1].end(), end)
	total := int((stop - start) / PageSize)
	// Every region owns its array (see Unmap), so the arrays of the regions
	// merged into a new one go back to the free list afterwards.
	var pages []page
	switch {
	case first.addr > start:
		pages = s.free.array(total)
		copy(pages[(first.addr-start)/PageSize:], first.pages)
		s.free.putArray(first.pages)
	case cap(first.pages) >= total:
		pages = first.pages[:total]
		clear(pages[len(first.pages):])
	default:
		pages = s.free.grow(first.pages, total)
	}
	for _, r := range s.regions[i+1 : j] {
		copy(pages[(r.addr-start)/PageSize:], r.pages)
		s.free.putArray(r.pages)
	}
	for k := (addr - start) / PageSize; k < (end-start)/PageSize; k++ {
		pages[k].perm = perm
	}
	first.addr, first.pages = start, pages
	s.regions = slices.Delete(s.regions, i+1, j)
	s.hint = i
	return nil
}

// Unmap removes the pages covering [addr, addr+length). It trims or splits
// the regions the range overlaps and moves the removed pages' backings to
// the FreeList, clearing their entries, so no backing outlives its
// mapping; arrays no region uses any more go there too. Its cost is
// bounded by the regions overlapped and the pages of the two regions it
// may cut, so by the pages mapped, not by the range.
func (s *Space) Unmap(addr, length uint64) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned unmap"}
	}
	end, ok := span(addr, length)
	if !ok {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unmap wraps the address space"}
	}
	if end == addr {
		return nil
	}
	s.drop(addr, end) // backings go to the free list
	i := s.search(addr)
	j := i
	for ; j < len(s.regions) && s.regions[j].addr < end; j++ {
		r := &s.regions[j]
		lo, hi := (max(r.addr, addr)-r.addr)/PageSize, (min(r.end(), end)-r.addr)/PageSize
		s.free.release(r.pages[lo:hi])
		clear(r.pages[lo:hi])
		s.mapped -= hi - lo
	}
	if i == j {
		return nil
	}
	// What survives: the head of the first region and the tail of the last.
	// A kept piece that stayed in its old array would pin all of it, so the
	// tail, which does not start the array, is always copied out, and the
	// head is copied out when it holds less than half of the array. Every
	// region thus starts its own array and fills about half of it or more,
	// so the arrays hold at most about twice the pages mapped.
	var keep [2]region
	n := 0
	first, last := s.regions[i], s.regions[j-1]
	inPlace := false // the head stays in first's array
	if first.addr < addr {
		head := first.pages[:(addr-first.addr)/PageSize]
		if 2*len(head) < cap(head) {
			head = s.free.clone(head)
		} else {
			inPlace = true
		}
		keep[n] = region{addr: first.addr, pages: head}
		n++
	}
	if last.end() > end {
		k := (end - last.addr) / PageSize
		keep[n] = region{addr: end, pages: s.free.clone(last.pages[k:])}
		clear(last.pages[k:])
		n++
	}
	for k := i; k < j; k++ {
		if k > i || !inPlace {
			s.free.putArray(s.regions[k].pages)
		}
	}
	s.regions = slices.Replace(s.regions, i, j, keep[:n]...)
	return nil
}

// Protect changes the permissions of the already-mapped range
// [addr, addr+length). It fails on any unmapped page in the range without
// applying a partial change. Regions are never adjacent, so the range must
// lie in the one region that holds addr; the cost is a lookup plus the
// pages changed.
func (s *Space) Protect(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned mprotect"}
	}
	end, ok := span(addr, length)
	if !ok {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "mprotect wraps the address space"}
	}
	if end == addr {
		return nil
	}
	r := s.lookup(addr)
	if r == nil {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "mprotect of unmapped page"}
	}
	if r.end() < end {
		return &Fault{Addr: r.end(), Kind: AccessMap, Why: "mprotect of unmapped page"}
	}
	s.drop(addr, end)
	for k := (addr - r.addr) / PageSize; k < (end-r.addr)/PageSize; k++ {
		r.pages[k].perm = perm
	}
	return nil
}

// Mapped reports whether addr lies in a mapped page.
func (s *Space) Mapped(addr uint64) bool { return s.lookup(addr) != nil }

// PermAt returns the permissions of the page containing addr; ok is false
// for unmapped addresses.
func (s *Space) PermAt(addr uint64) (Perm, bool) {
	pg := s.pageAt(addr, PermNone)
	if pg == nil {
		return PermNone, false
	}
	return pg.perm, true
}

// Read copies len(buf) bytes from addr into buf, requiring PermRead on every
// touched page.
func (s *Space) Read(addr uint64, buf []byte) error {
	return s.access(addr, buf, false, true)
}

// Write copies buf to addr, requiring PermWrite on every touched page.
func (s *Space) Write(addr uint64, buf []byte) error {
	return s.access(addr, buf, true, true)
}

// Peek copies bytes out without permission checks (kernel/ptrace access).
// It still faults on unmapped pages, as process_vm_readv does.
func (s *Space) Peek(addr uint64, buf []byte) error {
	return s.access(addr, buf, false, false)
}

// Poke writes bytes without permission checks (kernel/ptrace access).
func (s *Space) Poke(addr uint64, buf []byte) error {
	return s.access(addr, buf, true, false)
}

var zeroPage [PageSize]byte // what PeekEach shows of a page without backing

// PeekEach is Peek without the copy: it lends visit the n bytes at addr in
// address order, at most one page at a time, and returns Peek's fault
// once visit has seen exactly the bytes before it. It also returns how
// many bytes visit saw. visit must neither keep nor modify a segment.
func (s *Space) PeekEach(addr, n uint64, visit func([]byte)) (uint64, error) {
	done := uint64(0)
	for done < n {
		a := addr + done
		pg := s.pageAt(a, PermNone)
		if pg == nil {
			return done, s.fault(a, false)
		}
		off := a % PageSize
		chunk := min(PageSize-off, n-done)
		if pg.data != nil {
			visit(pg.data[off : off+chunk])
		} else {
			visit(zeroPage[:chunk])
		}
		done += chunk
	}
	return done, nil
}

func (s *Space) access(addr uint64, buf []byte, write, checkPerm bool) error {
	n := uint64(len(buf))
	if n == 0 {
		return nil
	}
	r := s.lookup(addr)
	if r == nil {
		return s.fault(addr, write)
	}
	var done uint64
	for i := (addr - r.addr) / PageSize; done < n; i++ {
		a := addr + done
		if i == uint64(len(r.pages)) {
			// Regions never touch: the page after this one is unmapped.
			return s.fault(a, write)
		}
		pg := &r.pages[i]
		if checkPerm {
			if write && pg.perm&PermWrite == 0 {
				return &Fault{Addr: a, Kind: AccessWrite, Why: "page is " + pg.perm.String()}
			}
			if !write && pg.perm&PermRead == 0 {
				return &Fault{Addr: a, Kind: AccessRead, Why: "page is " + pg.perm.String()}
			}
		}
		off := a % PageSize
		chunk := min(PageSize-off, n-done)
		switch {
		case write:
			if pg.data == nil {
				pg.data = s.free.take()
			}
			copy(pg.data[off:off+chunk], buf[done:done+chunk])
		case pg.data == nil:
			clear(buf[done : done+chunk])
		default:
			copy(buf[done:done+chunk], pg.data[off:off+chunk])
		}
		done += chunk
	}
	return nil
}

func (s *Space) fault(addr uint64, write bool) error {
	k := AccessRead
	if write {
		k = AccessWrite
	}
	return &Fault{Addr: addr, Kind: k, Why: "unmapped page"}
}

// ReadUint reads an unsigned little-endian integer of the given width
// (0 to 8 bytes; a width of 0 reads 0) with permission checks. It tries
// the read cache first; on a miss, a word it reads from a backed page
// puts that page in the read cache. Any other width is a fault.
func (s *Space) ReadUint(addr uint64, size int64) (uint64, error) {
	if v, ok := s.ReadUintCached(addr, size); ok {
		return v, nil
	}
	if pg := s.wordPage(addr, size, PermRead); pg != nil {
		if pg.data != nil {
			s.rd.fill(addr, pg.data)
		}
		return pg.load(addr, size), nil
	}
	if uint64(size) > 8 {
		return 0, widthFault(addr, size, AccessRead)
	}
	var buf [8]byte
	if err := s.Read(addr, buf[:size]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// WriteUint writes an unsigned little-endian integer of the given width
// (0 to 8 bytes, as ReadUint) with permission checks. It tries the write
// cache first; on a miss, a word it writes within one page puts that
// page, now backed, in the write cache.
func (s *Space) WriteUint(addr uint64, v uint64, size int64) error {
	if s.WriteUintCached(addr, v, size) {
		return nil
	}
	if pg := s.wordPage(addr, size, PermWrite); pg != nil {
		if pg.data == nil {
			pg.data = s.free.take()
		}
		s.wr.fill(addr, pg.data)
		pg.store(addr, v, size)
		return nil
	}
	if uint64(size) > 8 {
		return widthFault(addr, size, AccessWrite)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return s.Write(addr, buf[:size])
}

// widthFault is the fault of a word access whose width is not 0 to 8.
func widthFault(addr uint64, size int64, k AccessKind) error {
	return &Fault{Addr: addr, Kind: k, Why: fmt.Sprintf("word width %d", size)}
}

// ReadUintCached is ReadUint for a word the read cache holds: when size
// is 1 to 8, the page holding addr is cached and the 8 bytes at addr lie
// in it, it loads that little-endian word and returns its low size bytes
// and true. Otherwise it returns false and the caller reads through
// ReadUint, which raises every fault and fills the cache. It makes no
// call, so it inlines into the interpreter's loop.
func (s *Space) ReadUintCached(addr uint64, size int64) (uint64, bool) {
	n, off := addr/PageSize, addr%PageSize
	if s.rd.tag[n%cacheSlots] != n+1 || off > PageSize-8 || uint64(size-1) > 7 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(s.rd.data[n%cacheSlots][off:]) & widthMask(size), true
}

// WriteUintCached is WriteUint for a word the write cache holds: when
// size is 1 to 8, the page holding addr is cached and the 8 bytes at addr
// lie in it, it stores the low size bytes of v there, keeping the bytes
// above them, and returns true. Otherwise it stores nothing and returns
// false, and the caller writes through WriteUint. Its inline cost is the
// whole budget of 80: TestWordAccessorsInline keeps both accessors
// inlined into the interpreter.
func (s *Space) WriteUintCached(addr, v uint64, size int64) bool {
	n, off := addr/PageSize, addr%PageSize
	if s.wr.tag[n%cacheSlots] != n+1 || off > PageSize-8 || uint64(size-1) > 7 {
		return false
	}
	b, m := s.wr.data[n%cacheSlots][off:], widthMask(size)
	binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)&^m|v&m)
	return true
}

// widthMask is the mask of a word's low size bytes, for size 1 to 8.
func widthMask(size int64) uint64 { return 1<<(8*uint64(size)) - 1 }

// PeekUint reads an integer without permission checks. A page in the
// read cache answers it; a miss neither fills the cache nor backs the
// page.
func (s *Space) PeekUint(addr uint64, size int64) (uint64, error) {
	if v, ok := s.ReadUintCached(addr, size); ok {
		return v, nil
	}
	if pg := s.wordPage(addr, size, PermNone); pg != nil {
		return pg.load(addr, size), nil
	}
	if uint64(size) > 8 {
		return 0, widthFault(addr, size, AccessRead)
	}
	var buf [8]byte
	if err := s.Peek(addr, buf[:size]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// PokeUint writes an integer without permission checks. A page in the
// write cache takes it; a miss does not fill the cache.
func (s *Space) PokeUint(addr uint64, v uint64, size int64) error {
	if s.WriteUintCached(addr, v, size) {
		return nil
	}
	if pg := s.wordPage(addr, size, PermNone); pg != nil {
		if pg.data == nil {
			pg.data = s.free.take()
		}
		pg.store(addr, v, size)
		return nil
	}
	if uint64(size) > 8 {
		return widthFault(addr, size, AccessWrite)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return s.Poke(addr, buf[:size])
}

// wordPage is the word accessors' fast path: it returns the page that
// holds all size bytes at addr when size is 1 to 8, that page is mapped
// and its permissions include need. Otherwise it returns nil and the
// caller takes the general access path, which raises every fault, so a
// word that crosses a page or lands on an unmapped or forbidden page
// faults exactly as a byte-slice access does.
func (s *Space) wordPage(addr uint64, size int64, need Perm) *page {
	if size < 1 || size > 8 || addr%PageSize+uint64(size) > PageSize {
		return nil
	}
	return s.pageAt(addr, need)
}

// pageAt returns the mapped page holding addr if its permissions include
// need, or nil.
func (s *Space) pageAt(addr uint64, need Perm) *page {
	r := s.lookup(addr)
	if r == nil {
		return nil
	}
	pg := &r.pages[(addr-r.addr)/PageSize]
	if pg.perm&need != need {
		return nil
	}
	return pg
}

// load decodes the size-byte little-endian word at addr, which lies in
// pg. A page without backing reads as zero and stays without backing.
func (pg *page) load(addr uint64, size int64) uint64 {
	if pg.data == nil {
		return 0
	}
	b := pg.data[addr%PageSize:]
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 1:
		return uint64(b[0])
	}
	var buf [8]byte
	copy(buf[:size], b)
	return binary.LittleEndian.Uint64(buf[:])
}

// store encodes the low size bytes of v at addr, which lies in pg. The
// caller backs the page first; backing it here would make store too large
// to inline into the word writers.
func (pg *page) store(addr uint64, v uint64, size int64) {
	b := pg.data[addr%PageSize:]
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 1:
		b[0] = byte(v)
	default:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		copy(b[:size], buf[:size])
	}
}

// ReadCString reads a NUL-terminated string of at most max bytes starting at
// addr, with permission checks. It scans each page's backing for the NUL
// with one lookup per page; the first byte it cannot read faults through
// Read, at the same address a byte-at-a-time reader would.
func (s *Space) ReadCString(addr uint64, max int) (string, error) {
	var out []byte
	for n := 0; n < max; {
		a := addr + uint64(n)
		pg := s.pageAt(a, PermRead)
		if pg == nil {
			var b [1]byte
			return "", s.Read(a, b[:])
		}
		if pg.data == nil {
			return string(out), nil
		}
		off := a % PageSize
		seg := pg.data[off : off+min(PageSize-off, uint64(max-n))]
		if k := bytes.IndexByte(seg, 0); k >= 0 {
			if out == nil {
				return string(seg[:k]), nil
			}
			return string(append(out, seg[:k]...)), nil
		}
		out = append(out, seg...)
		n += len(seg)
	}
	return "", &Fault{Addr: addr, Kind: AccessRead, Why: "unterminated string"}
}

// Region describes one contiguous run of pages with identical permissions.
type Region struct {
	Addr uint64
	Size uint64
	Perm Perm
}

// Regions returns the mapped regions in address order, coalescing adjacent
// pages with equal permissions. Useful for /proc/self/maps-style dumps and
// tests.
func (s *Space) Regions() []Region {
	var out []Region
	for _, r := range s.regions {
		for k, pg := range r.pages {
			a := r.addr + uint64(k)*PageSize
			if n := len(out); n > 0 && out[n-1].Addr+out[n-1].Size == a && out[n-1].Perm == pg.perm {
				out[n-1].Size += PageSize
				continue
			}
			out = append(out, Region{Addr: a, Size: PageSize, Perm: pg.perm})
		}
	}
	return out
}
