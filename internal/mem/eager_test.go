package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"sort"
	"testing"
)

// eagerSpace is the reference model for the demand-zero Space: the
// implementation it replaced, which allocated and zeroed every page at Map.
// Data, faults and regions must match it for every operation sequence that
// stays below MaxMapped.
type eagerSpace struct {
	pages map[uint64]*eagerPage
}

type eagerPage struct {
	data [PageSize]byte
	perm Perm
}

func pageAddr(a uint64) uint64 { return a &^ (PageSize - 1) }

func newEager() *eagerSpace { return &eagerSpace{pages: map[uint64]*eagerPage{}} }

func (s *eagerSpace) Map(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned mapping"}
	}
	if length == 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "zero-length mapping"}
	}
	for a := addr; a < addr+RoundUp(length); a += PageSize {
		if pg, ok := s.pages[a]; ok {
			pg.perm = perm
		} else {
			s.pages[a] = &eagerPage{perm: perm}
		}
	}
	return nil
}

func (s *eagerSpace) Unmap(addr, length uint64) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned unmap"}
	}
	for a := addr; a < addr+RoundUp(length); a += PageSize {
		delete(s.pages, a)
	}
	return nil
}

func (s *eagerSpace) Protect(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned mprotect"}
	}
	end := addr + RoundUp(length)
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

func (s *eagerSpace) access(addr uint64, buf []byte, write, checkPerm bool) error {
	n := uint64(len(buf))
	var done uint64
	for done < n {
		a := addr + done
		pa := pageAddr(a)
		pg, ok := s.pages[pa]
		if !ok {
			k := AccessRead
			if write {
				k = AccessWrite
			}
			return &Fault{Addr: a, Kind: k, Why: "unmapped page"}
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
		chunk := min(PageSize-off, n-done)
		if write {
			copy(pg.data[off:off+chunk], buf[done:done+chunk])
		} else {
			copy(buf[done:done+chunk], pg.data[off:off+chunk])
		}
		done += chunk
	}
	return nil
}

func (s *eagerSpace) ReadCString(addr uint64, max int) (string, error) {
	var out []byte
	var b [1]byte
	for i := 0; i < max; i++ {
		if err := s.access(addr+uint64(i), b[:], false, true); err != nil {
			return "", err
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
	}
	return "", &Fault{Addr: addr, Kind: AccessRead, Why: "unterminated string"}
}

func (s *eagerSpace) Regions() []Region {
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

// The fuzzed operations work in a window of fuzzPages pages at fuzzBase,
// and may run one page past either end of it to reach unmapped memory; a
// mapping that starts at the window's end may reach four pages further.
const (
	fuzzBase  = 0x40_0000
	fuzzPages = 12
)

// sameErr reports whether two operation results agree: both nil, or equal
// *Fault values.
func sameErr(got, want error) bool {
	var gf, wf *Fault
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return errors.As(got, &gf) && errors.As(want, &wf) && *gf == *wf
}

// wordOp runs one word accessor (0 ReadUint, 1 WriteUint, 2 PeekUint,
// 3 PokeUint, 4 ReadUintCached, 5 WriteUintCached) on got and the same
// access on the eager model, requires equal values from reads, and
// returns both errors for comparison. A cached accessor that misses falls
// back to ReadUint or WriteUint, as the interpreter does; one that hits
// must be serving an access the eager model allows.
func wordOp(t *testing.T, got *Space, want *eagerSpace, acc, addr uint64, width int64, v uint64) (gErr, wErr error) {
	t.Helper()
	var w [8]byte
	write, checkPerm := acc%2 == 1, acc < 2 || acc > 3
	hit := false
	if write {
		binary.LittleEndian.PutUint64(w[:], v)
		switch acc {
		case 1:
			gErr = got.WriteUint(addr, v, width)
		case 3:
			gErr = got.PokeUint(addr, v, width)
		case 5:
			if hit = got.WriteUintCached(addr, v, width); !hit {
				gErr = got.WriteUint(addr, v, width)
			}
		}
		wErr = want.access(addr, w[:width], true, checkPerm)
	} else {
		var g uint64
		switch acc {
		case 0:
			g, gErr = got.ReadUint(addr, width)
		case 2:
			g, gErr = got.PeekUint(addr, width)
		case 4:
			if g, hit = got.ReadUintCached(addr, width); !hit {
				g, gErr = got.ReadUint(addr, width)
			}
		}
		var wv uint64
		if wErr = want.access(addr, w[:width], false, checkPerm); wErr == nil {
			wv = binary.LittleEndian.Uint64(w[:])
		}
		if g != wv {
			t.Fatalf("word accessor %d at %#x width %d = %#x, eager model %#x", acc, addr, width, g, wv)
		}
	}
	if hit && wErr != nil {
		t.Fatalf("word accessor %d at %#x width %d hit the cache, eager model faults: %v", acc, addr, width, wErr)
	}
	return gErr, wErr
}

// probeCache checks every cached page the operations can reach against
// the eager model: at a word-aligned offset that varies with step, a
// ReadUintCached hit must read what the eager model holds where it allows
// the read, and a WriteUintCached hit, which writes back the word the
// eager model holds, must land where it allows the write. A stale entry
// left by Map, Unmap, Protect or Release fails one of the two.
func probeCache(t *testing.T, got *Space, want *eagerSpace, step int) {
	t.Helper()
	for a := uint64(fuzzBase - PageSize); a < fuzzBase+(fuzzPages+5)*PageSize; a += PageSize {
		probe := a + uint64(step)*24%(PageSize-8)
		var w [8]byte
		if g, hit := got.ReadUintCached(probe, 8); hit {
			if err := want.access(probe, w[:], false, true); err != nil || g != binary.LittleEndian.Uint64(w[:]) {
				t.Fatalf("step %d: ReadUintCached(%#x) hit with %#x; eager model %x, %v", step, probe, g, w, err)
			}
		}
		if want.access(probe, w[:], false, false) != nil {
			w = [8]byte{} // unmapped in the model: any hit is stale
		}
		if got.WriteUintCached(probe, binary.LittleEndian.Uint64(w[:]), 8) {
			if err := want.access(probe, w[:], true, true); err != nil {
				t.Fatalf("step %d: WriteUintCached(%#x) hit; eager model faults: %v", step, probe, err)
			}
		}
	}
}

// checkDrop checks what a Map, Unmap or Protect of [page, page+length)
// left in the word cache: every page outside the range that was cached
// before is still cached, with the same backing, and when the operation
// succeeded no page inside it is. A range that wraps or is not aligned
// fails before it changes anything, so everything stays.
func checkDrop(t *testing.T, step int, before, after [2]wordCache, page, length uint64, ok bool) {
	t.Helper()
	end, spans := span(page, length)
	ok = ok && spans && page%PageSize == 0
	dropped := func(tag uint64) bool { return ok && tag != 0 && (tag-1)*PageSize-page < end-page }
	for k := range before {
		for i := range cacheSlots {
			was, is := before[k].tag[i], after[k].tag[i]
			if dropped(is) {
				t.Fatalf("step %d: table %d slot %d still holds page %#x of [%#x, %#x)", step, k, i, (is-1)*PageSize, page, end)
			}
			if was != 0 && !dropped(was) && (is != was || after[k].data[i] != before[k].data[i]) {
				t.Fatalf("step %d: table %d slot %d lost page %#x, outside [%#x, %#x)", step, k, i, (was-1)*PageSize, page, end)
			}
		}
	}
}

// FuzzSpaceMatchesEager drives the demand-zero Space and the eager reference
// model through the same random sequence of Map, Unmap, Protect, Release,
// Read, Write, Peek (and PeekEach), Poke, ReadCString and the word
// accessors (ReadUint, WriteUint, PeekUint, PokeUint, and the word cache's
// ReadUintCached and WriteUintCached, at widths 1, 2, 4 and 8). After every
// step it checks byte-identical data, identical *Fault values, identical
// Regions, identical Mapped and PermAt answers for every page the
// operations can reach, that every word-cache hit on those pages agrees
// with the eager model, and that a Map, Unmap or Protect dropped exactly
// the cached pages of its own range (checkDrop). Read and Peek
// destinations start as non-zero garbage, so a read of a page without
// backing that fails to clear the caller's chunk is caught. Each sequence runs twice: on a
// NewSpace, and on a Space whose FreeList starts full of dirty pages,
// dirty page arrays and a dirty region slice, so a recycled page or array
// that is not cleared before reuse is caught too.
func FuzzSpaceMatchesEager(f *testing.F) {
	f.Add([]byte{0, 0, 4, 3, 4, 1, 0, 200, 0, 5, 2, 2, 60, 9, 1, 6, 1, 0, 3, 8})
	f.Add([]byte{0, 2, 6, 1, 2, 3, 1, 7, 3, 2, 255, 40, 4, 3, 0, 90, 1, 5, 4, 1, 1, 2, 7, 0, 0, 77})
	f.Add([]byte{0, 0, 12, 3, 6, 2, 0, 255, 255, 7, 0, 0, 1, 4, 0, 3, 2, 1, 9, 5, 0, 10, 64, 2, 3, 0, 1})
	f.Add([]byte{8, 1, 3, 0, 1, 0, 2, 5, 1, 1, 17, 3, 3, 1, 0, 5, 0, 3, 250, 6, 3, 2})
	// Word accesses that cross from a mapped page into an unmapped one:
	// map one RW page, then WriteUint and ReadUint 8 bytes 4 bytes before
	// its end, and PokeUint 4 bytes 2 bytes before it.
	f.Add([]byte{
		0, 1, 1, 0, 1, 0, 0, 0, 2,
		8, 1, 1, 0, 0, 0, 0, 0, 0, 1, 3, 3,
		8, 1, 1, 0, 0, 0, 0, 0, 0, 0, 3, 3,
		8, 1, 1, 0, 0, 0, 0, 0, 0, 3, 2, 1,
	})
	// Word accesses that cross from an RW page into a read-only one: the
	// write faults on the second page after storing into the first, the
	// read, the peek and the poke succeed.
	f.Add([]byte{
		0, 1, 1, 0, 1, 0, 0, 0, 2,
		0, 2, 1, 0, 1, 0, 0, 0, 1,
		8, 1, 1, 0, 0, 0, 0, 0, 0, 1, 3, 1,
		8, 1, 1, 0, 0, 0, 0, 0, 0, 0, 3, 1,
		8, 1, 1, 0, 0, 0, 0, 0, 0, 3, 3, 5,
		8, 1, 1, 0, 0, 0, 0, 0, 0, 2, 3, 5,
	})
	// The word cache across its flush points: map two RW pages, write a
	// word through WriteUint (filling the write cache) and through
	// WriteUintCached, read it through ReadUint and ReadUintCached,
	// Protect the first page read-only and write through WriteUintCached
	// (a miss, then WriteUint's fault); unmap and map it again and read
	// through ReadUintCached; write, release the Space, map and read
	// through both cached accessors.
	f.Add([]byte{
		0, 1, 1, 0, 2, 0, 0, 0, 2,
		8, 1, 1, 4, 0, 0, 0, 0, 0, 1, 3, 9,
		8, 1, 1, 4, 0, 0, 0, 0, 0, 5, 3, 9,
		8, 1, 1, 4, 0, 0, 0, 0, 0, 0, 3, 9,
		8, 1, 1, 4, 0, 0, 0, 0, 0, 4, 3, 9,
		2, 1, 1, 0, 1, 0, 0, 0, 1,
		8, 1, 1, 4, 0, 0, 0, 0, 0, 5, 3, 9,
		1, 1, 1, 0, 1, 0, 0, 0, 0,
		0, 1, 1, 0, 1, 0, 0, 0, 2,
		8, 1, 1, 4, 0, 0, 0, 0, 0, 4, 3, 9,
		8, 1, 1, 4, 0, 0, 0, 0, 0, 1, 3, 9,
		9, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 1, 1, 0, 2, 0, 0, 0, 2,
		8, 1, 1, 4, 0, 0, 0, 0, 0, 4, 3, 9,
		8, 1, 1, 4, 0, 0, 0, 0, 0, 5, 3, 9,
	})
	// Sub-range Map, Unmap and Protect of a cached multi-page region,
	// between cached accesses: each drops only its own page.
	f.Add([]byte{
		// map four RW pages
		0, 1, 1, 0, 4, 0, 0, 0, 2,
		// WriteUint, then ReadUint, on each: both tables hold all four
		8, 1, 1, 4, 0, 0, 0, 0, 0, 1, 3, 9,
		8, 2, 1, 4, 0, 0, 0, 0, 0, 1, 3, 9,
		8, 3, 1, 4, 0, 0, 0, 0, 0, 1, 3, 9,
		8, 4, 1, 4, 0, 0, 0, 0, 0, 1, 3, 9,
		8, 1, 1, 4, 0, 0, 0, 0, 0, 0, 3, 9,
		8, 2, 1, 4, 0, 0, 0, 0, 0, 0, 3, 9,
		8, 3, 1, 4, 0, 0, 0, 0, 0, 0, 3, 9,
		8, 4, 1, 4, 0, 0, 0, 0, 0, 0, 3, 9,
		// Protect the second read-only; cached writes to it and its neighbours
		2, 2, 1, 0, 1, 0, 0, 0, 1,
		8, 1, 1, 4, 0, 0, 0, 0, 0, 5, 3, 9,
		8, 2, 1, 4, 0, 0, 0, 0, 0, 5, 3, 9,
		8, 3, 1, 4, 0, 0, 0, 0, 0, 5, 3, 9,
		// refill its read entry, PokeUint it, read it cached
		8, 2, 1, 4, 0, 0, 0, 0, 0, 0, 3, 9,
		8, 2, 1, 4, 0, 0, 0, 0, 0, 3, 3, 9,
		8, 2, 1, 4, 0, 0, 0, 0, 0, 4, 3, 9,
		// Unmap the third; cached reads of it and its neighbours, cached writes
		1, 3, 1, 0, 1, 0, 0, 0, 0,
		8, 2, 1, 4, 0, 0, 0, 0, 0, 4, 3, 9,
		8, 3, 1, 4, 0, 0, 0, 0, 0, 4, 3, 9,
		8, 4, 1, 4, 0, 0, 0, 0, 0, 4, 3, 9,
		8, 3, 1, 4, 0, 0, 0, 0, 0, 5, 3, 9,
		8, 4, 1, 4, 0, 0, 0, 0, 0, 5, 3, 9,
		// Map the third again; cached read, WriteUint, cached read
		0, 3, 1, 0, 1, 0, 0, 0, 2,
		8, 3, 1, 4, 0, 0, 0, 0, 0, 4, 3, 9,
		8, 3, 1, 4, 0, 0, 0, 0, 0, 1, 3, 9,
		8, 3, 1, 4, 0, 0, 0, 0, 0, 4, 3, 9,
		// Map the fourth read-only over it; cached writes and a cached read
		0, 4, 1, 0, 1, 0, 0, 0, 1,
		8, 4, 1, 4, 0, 0, 0, 0, 0, 5, 3, 9,
		8, 1, 1, 4, 0, 0, 0, 0, 0, 5, 3, 9,
		8, 4, 1, 4, 0, 0, 0, 0, 0, 4, 3, 9,
		// Protect the first two RWX; a cached read of the third, a cached write to the first
		2, 1, 1, 0, 2, 0, 0, 0, 4,
		8, 3, 1, 4, 0, 0, 0, 0, 0, 4, 3, 9,
		8, 1, 1, 4, 0, 0, 0, 0, 0, 5, 3, 9,
	})
	f.Fuzz(func(t *testing.T, prog []byte) {
		runEagerOps(t, NewSpace(), prog)
		runEagerOps(t, NewSpaceFrom(dirtyList(fuzzPages+6, 0xcc)), prog)
	})
}

// runEagerOps runs the operation sequence prog encodes on got and on a
// fresh eager model, and fails t at the first difference.
func runEagerOps(t *testing.T, got *Space, prog []byte) {
	t.Helper()
	want := newEager()
	next := func() uint64 {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return uint64(b)
	}
	perms := []Perm{PermNone, PermRead, PermRW, PermRX, PermRWX, PermWrite}
	for step := 0; len(prog) > 0 && step < 64; step++ {
		op := next() % 10
		// A page-aligned address, one page either side of the window;
		// 1 in 8 Map/Unmap/Protect calls is deliberately misaligned.
		page := fuzzBase + (next()%(fuzzPages+2))*PageSize - PageSize
		if next()%8 == 0 {
			page += 8
		}
		// A byte address anywhere in the same span, for accesses.
		addr := page + next()*16%PageSize
		// Lengths: whole or partial pages, up to five pages.
		length := next()%6*PageSize - next()%3*100
		if length > 5*PageSize {
			length = 0
		}
		size := next()*33 + next()%3*PageSize
		perm := perms[next()%uint64(len(perms))]

		var gErr, wErr error
		cached := [2]wordCache{got.rd, got.wr}
		switch op {
		case 0:
			gErr, wErr = got.Map(page, length, perm), want.Map(page, length, perm)
		case 1:
			gErr, wErr = got.Unmap(page, length), want.Unmap(page, length)
		case 2:
			gErr, wErr = got.Protect(page, length, perm), want.Protect(page, length, perm)
		case 3, 4:
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(step*7 + i)
			}
			if op == 3 {
				gErr, wErr = got.Write(addr, data), want.access(addr, data, true, true)
			} else {
				gErr, wErr = got.Poke(addr, data), want.access(addr, data, true, false)
			}
		case 5, 6:
			gBuf, wBuf := bytes.Repeat([]byte{0xa5}, int(size)), bytes.Repeat([]byte{0xa5}, int(size))
			if op == 5 {
				gErr, wErr = got.Read(addr, gBuf), want.access(addr, wBuf, false, true)
			} else {
				gErr, wErr = got.Peek(addr, gBuf), want.access(addr, wBuf, false, false)
				// PeekEach must fault as Peek does, having shown exactly
				// the bytes before the fault, in order.
				var seen []byte
				n, eErr := got.PeekEach(addr, size, func(b []byte) { seen = append(seen, b...) })
				var f *Fault
				whole := wErr == nil && len(seen) == int(size)
				upTo := errors.As(wErr, &f) && uint64(len(seen)) == f.Addr-addr
				if !sameErr(eErr, wErr) || !whole && !upTo || n != uint64(len(seen)) || !bytes.Equal(seen, wBuf[:len(seen)]) {
					t.Fatalf("step %d: PeekEach(%#x, %d) showed %d bytes, %v; eager model %v", step, addr, size, len(seen), eErr, wErr)
				}
			}
			if !bytes.Equal(gBuf, wBuf) {
				t.Fatalf("step %d: op %d at %#x+%d: data differs from the eager model", step, op, addr, size)
			}
		case 7:
			max := int(size%300) + 1
			gs, ge := got.ReadCString(addr, max)
			ws, we := want.ReadCString(addr, max)
			gErr, wErr = ge, we
			if gs != ws {
				t.Fatalf("step %d: ReadCString(%#x, %d) = %q, eager model %q", step, addr, max, gs, ws)
			}
		case 8:
			// A word access through one of the six word accessors, at
			// width 1, 2, 4 or 8, at addr or 1 to 7 bytes before the end
			// of its page, so a wide word crosses into the next page.
			acc, width := next()%6, int64(1)<<(next()%4)
			if k := next() % 16; k < 7 {
				addr = pageAddr(addr) + PageSize - 1 - k
			}
			gErr, wErr = wordOp(t, got, want, acc, addr, width, 0xa1b2c3d4e5f60718+uint64(step))
		case 9:
			got.Release()
			want = newEager()
		}
		if !sameErr(gErr, wErr) {
			t.Fatalf("step %d: op %d: error %v, eager model %v", step, op, gErr, wErr)
		}
		if op <= 2 {
			checkDrop(t, step, cached, [2]wordCache{got.rd, got.wr}, page, length, gErr == nil)
		}
		if g, w := got.Regions(), want.Regions(); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d: op %d: Regions %+v, eager model %+v", step, op, g, w)
		}
		probeCache(t, got, want, step)
		// Mapped and PermAt go through the lookup hint, which Regions
		// does not use: a stale hint would answer for a page the eager
		// model no longer maps.
		for a := uint64(fuzzBase - PageSize); a < fuzzBase+(fuzzPages+5)*PageSize; a += PageSize {
			probe := a + uint64(step)*8%PageSize
			wp, wok := want.pages[a]
			gp, gok := got.PermAt(probe)
			if m := got.Mapped(probe); m != wok || gok != wok || wok && gp != wp.perm {
				t.Fatalf("step %d: op %d: page %#x: Mapped %v, PermAt %v/%v; eager model mapped %v", step, op, a, m, gp, gok, wok)
			}
		}
	}
	// Every mapped byte of the window must match, backed or not.
	for a := uint64(fuzzBase - PageSize); a < fuzzBase+(fuzzPages+1)*PageSize; a += PageSize {
		g, w := bytes.Repeat([]byte{0x5a}, PageSize), bytes.Repeat([]byte{0x5a}, PageSize)
		gErr, wErr := got.Peek(a, g), want.access(a, w, false, false)
		if !sameErr(gErr, wErr) || !bytes.Equal(g, w) {
			t.Fatalf("final page %#x differs from the eager model (%v vs %v)", a, gErr, wErr)
		}
	}
}
