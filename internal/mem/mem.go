// Package mem implements the sparse, paged virtual address space used by
// simulated guest processes. It provides mmap/mprotect/munmap semantics with
// per-page permissions, checked guest accesses, and privileged (kernel/
// ptrace-style) accesses that bypass permissions — the access path the
// BASTION monitor uses via process_vm_readv.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
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
// a map entry per page, not 4 KiB of host memory per page.
type page struct {
	data *[PageSize]byte
	perm Perm
}

// MaxMapped is the most address space, in bytes, one Space maps at a time:
// 1 GiB, or 262,144 pages. The simulated guests map a few MiB (the 4 MiB
// shadow region, the 1 MiB stack, heap and anonymous regions). The cap
// keeps a guest-chosen mmap, brk or mremap length from driving the host
// through billions of page entries: Map fails with a *Fault instead.
const MaxMapped = 1 << 30

const maxPages = MaxMapped / PageSize

// Space is a sparse virtual address space. The zero value is not usable;
// call NewSpace.
type Space struct {
	pages map[uint64]*page // keyed by page-aligned address

	// Reads and Writes count checked guest accesses, for statistics.
	Reads, Writes uint64
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{pages: make(map[uint64]*page)}
}

func pageAddr(a uint64) uint64 { return a &^ (PageSize - 1) }

// RoundUp rounds a length up to a whole number of pages.
func RoundUp(n uint64) uint64 { return (n + PageSize - 1) &^ (PageSize - 1) }

// span returns the page-aligned end of [addr, addr+length); ok is false
// when the rounded range wraps past the top of the address space.
func span(addr, length uint64) (end uint64, ok bool) {
	n := RoundUp(length)
	end = addr + n
	return end, n >= length && end >= addr
}

// Map maps [addr, addr+length) with the given permissions. addr must be
// page-aligned. Mapping over an existing page replaces its permissions and
// keeps its contents (MAP_FIXED-over-existing semantics); callers that need
// fresh zero pages should Unmap first. A mapping that would take the space
// past MaxMapped fails before any page changes.
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
	// Count the range's fresh pages only when it could reach the cap.
	n, have := (end-addr)/PageSize, uint64(len(s.pages))
	if n > maxPages || have+n > maxPages && have+s.unmappedIn(addr, end) > maxPages {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "mapping exceeds the address-space cap"}
	}
	for a := addr; a < end; a += PageSize {
		if pg, ok := s.pages[a]; ok {
			pg.perm = perm
		} else {
			s.pages[a] = &page{perm: perm}
		}
	}
	return nil
}

// unmappedIn counts the pages of [addr, end) that are not mapped.
func (s *Space) unmappedIn(addr, end uint64) uint64 {
	var n uint64
	for a := addr; a < end; a += PageSize {
		if _, ok := s.pages[a]; !ok {
			n++
		}
	}
	return n
}

// Unmap removes the pages covering [addr, addr+length). Its cost is bounded
// by the smaller of the range and the pages mapped.
func (s *Space) Unmap(addr, length uint64) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned unmap"}
	}
	end, ok := span(addr, length)
	if !ok {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unmap wraps the address space"}
	}
	if (end-addr)/PageSize > uint64(len(s.pages)) {
		for a := range s.pages {
			if a >= addr && a < end {
				delete(s.pages, a)
			}
		}
		return nil
	}
	for a := addr; a < end; a += PageSize {
		delete(s.pages, a)
	}
	return nil
}

// Protect changes the permissions of the already-mapped range
// [addr, addr+length). It fails on any unmapped page in the range without
// applying a partial change. The scan stops at the first unmapped page, so
// its cost is bounded by the pages mapped.
func (s *Space) Protect(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned mprotect"}
	}
	end, ok := span(addr, length)
	if !ok {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "mprotect wraps the address space"}
	}
	for a := addr; a < end; a += PageSize {
		if _, ok := s.pages[a]; !ok {
			return &Fault{Addr: a, Kind: AccessMap, Why: "mprotect of unmapped page"}
		}
	}
	for a := addr; a < end; a += PageSize {
		s.pages[a].perm = perm
	}
	return nil
}

// Mapped reports whether addr lies in a mapped page.
func (s *Space) Mapped(addr uint64) bool {
	_, ok := s.pages[pageAddr(addr)]
	return ok
}

// PermAt returns the permissions of the page containing addr; ok is false
// for unmapped addresses.
func (s *Space) PermAt(addr uint64) (Perm, bool) {
	pg, ok := s.pages[pageAddr(addr)]
	if !ok {
		return PermNone, false
	}
	return pg.perm, true
}

// Read copies len(buf) bytes from addr into buf, requiring PermRead on every
// touched page.
func (s *Space) Read(addr uint64, buf []byte) error {
	s.Reads++
	return s.access(addr, buf, false, true)
}

// Write copies buf to addr, requiring PermWrite on every touched page.
func (s *Space) Write(addr uint64, buf []byte) error {
	s.Writes++
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

func (s *Space) access(addr uint64, buf []byte, write, checkPerm bool) error {
	n := uint64(len(buf))
	var done uint64
	for done < n {
		a := addr + done
		pa := pageAddr(a)
		pg, ok := s.pages[pa]
		if !ok {
			return s.fault(a, write)
		}
		if checkPerm {
			if write && pg.perm&PermWrite == 0 {
				return &Fault{Addr: a, Kind: AccessWrite, Why: "page is " + pg.perm.String()}
			}
			if !write && pg.perm&PermRead == 0 {
				return &Fault{Addr: a, Kind: AccessRead, Why: "page is " + pg.perm.String()}
			}
		}
		off := a - pa
		chunk := PageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		switch {
		case write:
			if pg.data == nil {
				pg.data = new([PageSize]byte)
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
// (1, 2, 4, or 8 bytes) with permission checks.
func (s *Space) ReadUint(addr uint64, size int64) (uint64, error) {
	var buf [8]byte
	if err := s.Read(addr, buf[:size]); err != nil {
		return 0, err
	}
	return decodeUint(buf[:size]), nil
}

// WriteUint writes an unsigned little-endian integer of the given width
// with permission checks.
func (s *Space) WriteUint(addr uint64, v uint64, size int64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return s.Write(addr, buf[:size])
}

// PeekUint reads an integer without permission checks.
func (s *Space) PeekUint(addr uint64, size int64) (uint64, error) {
	var buf [8]byte
	if err := s.Peek(addr, buf[:size]); err != nil {
		return 0, err
	}
	return decodeUint(buf[:size]), nil
}

// PokeUint writes an integer without permission checks.
func (s *Space) PokeUint(addr uint64, v uint64, size int64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return s.Poke(addr, buf[:size])
}

func decodeUint(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// ReadCString reads a NUL-terminated string of at most max bytes starting at
// addr, with permission checks.
func (s *Space) ReadCString(addr uint64, max int) (string, error) {
	out := make([]byte, 0, 64)
	var b [1]byte
	for i := 0; i < max; i++ {
		if err := s.Read(addr+uint64(i), b[:]); err != nil {
			return "", err
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
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
	addrs := make([]uint64, 0, len(s.pages))
	for a := range s.pages {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var out []Region
	for _, a := range addrs {
		p := s.pages[a].perm
		if n := len(out); n > 0 && out[n-1].Addr+out[n-1].Size == a && out[n-1].Perm == p {
			out[n-1].Size += PageSize
			continue
		}
		out = append(out, Region{Addr: a, Size: PageSize, Perm: p})
	}
	return out
}
