package monitor

// Fuzz + boundary tests for the monitor's guest-memory readers, seeded
// from the regression corpus of the verifyBytes straddle fix: readCString
// must behave identically over the ptrace and in-kernel access paths
// (same string, same error presence) across terminated, max-length,
// unterminated, and region-boundary inputs; verifyBytes must accept any
// faithfully shadowed region and reject every single-byte corruption of
// it; walkPointee must gate sizes and unreadable regions.

import (
	"bytes"
	"strings"
	"testing"

	"bastion/internal/kernel"
	"bastion/internal/mem"
	"bastion/internal/vm"
)

const fuzzBase = uint64(0x7000_0000)

// newMemMonitor builds a Monitor over a one-page guest mapping at
// fuzzBase, so [fuzzBase, fuzzBase+PageSize) is readable and everything
// beyond is a fault — the region boundary the readers must respect.
func newMemMonitor(tb testing.TB, inKernel bool) (*Monitor, *mem.Space) {
	tb.Helper()
	sp := mem.NewSpace()
	if err := sp.Map(fuzzBase, mem.PageSize, mem.PermRW); err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.InKernel = inKernel
	proc := &kernel.Process{K: kernel.New(nil), M: &vm.Machine{Mem: sp}}
	return &Monitor{Cfg: cfg, guest: guestAccess(proc, cfg)}, sp
}

// FuzzReadCString is differential: the reader must agree with itself over
// the in-kernel and ptrace access paths on every (content, offset) — same
// success, same string — and any returned string must be exactly the
// bytes up to the first NUL.
func FuzzReadCString(f *testing.F) {
	f.Add([]byte("hello\x00world"), uint16(0))
	f.Add([]byte("/bin/app\x00"), uint16(100))
	// Max-length: 256 bytes with no terminator inside the read window.
	f.Add(bytes.Repeat([]byte{'a'}, 300), uint16(0))
	// Terminator exactly at the end of one 64-byte chunk.
	f.Add(append(bytes.Repeat([]byte{'x'}, 63), 0), uint16(0))
	f.Add(append(bytes.Repeat([]byte{'x'}, 64), 0), uint16(0))
	// Unterminated string running into the end of the mapping.
	f.Add(bytes.Repeat([]byte{'q'}, 16), uint16(mem.PageSize-16))
	// Terminated string whose 64-byte read chunk straddles the region end.
	f.Add([]byte("tail\x00"), uint16(mem.PageSize-10))
	f.Fuzz(func(t *testing.T, data []byte, off uint16) {
		const max = 256
		offset := uint64(off) % mem.PageSize
		ptr := fuzzBase + offset
		n := len(data)
		if rem := int(mem.PageSize - offset); n > rem {
			n = rem
		}
		ptraceMon, psp := newMemMonitor(t, false)
		inkernMon, ksp := newMemMonitor(t, true)
		if err := psp.Poke(ptr, data[:n]); err != nil {
			t.Fatal(err)
		}
		if err := ksp.Poke(ptr, data[:n]); err != nil {
			t.Fatal(err)
		}
		sPt, errPt := ptraceMon.readCString(ptr, max)
		sIK, errIK := inkernMon.readCString(ptr, max)
		if (errPt == nil) != (errIK == nil) {
			t.Fatalf("access paths disagree on error: ptrace=%v in-kernel=%v", errPt, errIK)
		}
		if errPt != nil {
			return
		}
		if sPt != sIK {
			t.Fatalf("access paths disagree: ptrace=%q in-kernel=%q", sPt, sIK)
		}
		if len(sPt) >= max {
			t.Fatalf("string longer than max: %d", len(sPt))
		}
		if strings.IndexByte(sPt, 0) >= 0 {
			t.Fatalf("returned string contains NUL: %q", sPt)
		}
		// The result must be exactly guest memory up to the first NUL.
		want := make([]byte, len(sPt)+1)
		if err := psp.Peek(ptr, want); err != nil {
			t.Fatalf("result extends past readable memory: %v", err)
		}
		if string(want[:len(sPt)]) != sPt || want[len(sPt)] != 0 {
			t.Fatalf("string %q does not match memory %v", sPt, want)
		}
	})
}

// FuzzVerifyBytes builds a faithful contiguous shadow covering of a fuzzed
// region — entry sizes 1..8 drawn from a second stream, with the final
// entry optionally straddling the region end — and checks that the
// verifier accepts the region and rejects every single-byte corruption.
func FuzzVerifyBytes(f *testing.F) {
	f.Add([]byte{0x11, 0x22, 0x33, 0x44, 0xaa, 0xbb, 0xcc, 0xdd}, []byte{4, 8}, uint8(7))
	f.Add([]byte("/bin/app\x00"), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(0))
	f.Add(bytes.Repeat([]byte{0x5a}, 64), []byte{8, 8, 8, 8, 8, 8, 8, 8}, uint8(63))
	f.Add([]byte{1, 2, 3}, []byte{8}, uint8(1)) // one entry straddles the whole region
	f.Fuzz(func(t *testing.T, data []byte, sizes []byte, flip uint8) {
		if len(data) == 0 || len(data) > 256 || len(sizes) == 0 {
			t.Skip()
		}
		const base = uint64(0x5100_0000)
		// Entries record what a legitimate writer stored: they may extend
		// past the verified region (the straddle case), so back them with
		// data plus a deterministic tail.
		ext := append(append([]byte{}, data...), bytes.Repeat([]byte{0xee}, 8)...)
		entries := map[uint64][]byte{}
		k := 0
		for i := 0; i < len(data); {
			size := 1 + int(sizes[k%len(sizes)]%8)
			k++
			if i+size > len(ext) {
				size = len(ext) - i
			}
			entries[base+uint64(i)] = ext[i : i+size]
			i += size
		}
		m := newShadowMonitor(t, entries)
		if v := m.verifyBytes(kernel.SysBind, 2, base, data, true); v != nil {
			t.Fatalf("faithfully shadowed region flagged: %v", v)
		}
		// Every byte of the region is covered by construction, so any
		// single-byte flip must be caught.
		idx := int(flip) % len(data)
		bad := append([]byte{}, data...)
		bad[idx] ^= 0x5a
		v := m.verifyBytes(kernel.SysBind, 2, base, bad, true)
		if v == nil {
			t.Fatalf("corruption at +%d passed (region %d bytes, %d entries)",
				idx, len(data), len(entries))
		}
		if v.Context != ArgIntegrity {
			t.Fatalf("context = %v, want argument-integrity", v.Context)
		}
	})
}

// TestWalkPointeeSizeGates pins the size gating: non-positive and
// oversized pointees are skipped (metadata, not guest data, controls
// size, so they are not violations), while an unreadable region of a
// legal size is one.
func TestWalkPointeeSizeGates(t *testing.T) {
	m, sp := newMemMonitor(t, false)
	if err := sp.Poke(fuzzBase, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{0, -1, 4097, 1 << 20} {
		if v := m.walkPointee(kernel.SysBind, 2, fuzzBase, size, true); v != nil {
			t.Fatalf("size %d not gated: %v", size, v)
		}
	}
	// Unmapped region of a legal size: unreadable, must flag.
	v := m.walkPointee(kernel.SysBind, 2, fuzzBase+2*mem.PageSize, 16, true)
	if v == nil {
		t.Fatal("unreadable pointee region passed")
	}
	if !strings.Contains(v.Reason, "unreadable") {
		t.Fatalf("reason = %q", v.Reason)
	}
	// A region straddling the end of the mapping is likewise unreadable.
	v = m.walkPointee(kernel.SysBind, 2, fuzzBase+mem.PageSize-8, 16, true)
	if v == nil {
		t.Fatal("pointee straddling the mapping end passed")
	}
}

// TestWalkPointeeCoverage pins the requireCoverage split: a readable but
// never-shadowed in-parameter is a violation, while the same region as an
// out-parameter passes.
func TestWalkPointeeCoverage(t *testing.T) {
	m := newShadowMonitor(t, map[uint64][]byte{})
	sp := mem.NewSpace()
	if err := sp.Map(fuzzBase, mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	m.guest = guestAccess(&kernel.Process{K: kernel.New(nil), M: &vm.Machine{Mem: sp}}, m.Cfg)
	if v := m.walkPointee(kernel.SysBind, 2, fuzzBase, 16, true); v == nil {
		t.Fatal("untraced in-parameter passed")
	} else if !strings.Contains(v.Reason, "untraced") {
		t.Fatalf("reason = %q", v.Reason)
	}
	if v := m.walkPointee(kernel.SysBind, 2, fuzzBase, 16, false); v != nil {
		t.Fatalf("out-parameter without coverage flagged: %v", v)
	}
}

// TestReadCStringChunkBoundaries drives the reader's 64-byte chunk loop
// over both access paths at every terminator position around chunk
// edges, where an off-by-one would silently truncate or over-read, and
// pins the charge: one read per chunk up to the terminator's, at the
// path's own cost.
func TestReadCStringChunkBoundaries(t *testing.T) {
	for _, inKernel := range []bool{false, true} {
		for _, termAt := range []int{0, 1, 62, 63, 64, 65, 127, 128, 129, 254, 255} {
			m, sp := newMemMonitor(t, inKernel)
			if err := sp.Poke(fuzzBase, append(bytes.Repeat([]byte{'b'}, termAt), 0)); err != nil {
				t.Fatal(err)
			}
			k := m.guest.P.K
			before := k.Clock.Cycles
			s, err := m.readCString(fuzzBase, 256)
			if err != nil || len(s) != termAt {
				t.Fatalf("inKernel=%v termAt=%d: got %d bytes, %v", inKernel, termAt, len(s), err)
			}
			chunk := 8 * k.Costs.ReadMemPerWord
			if !inKernel {
				chunk += k.Costs.ReadMemBase
			}
			if got, want := k.Clock.Cycles-before, uint64(termAt/64+1)*chunk; got != want {
				t.Fatalf("inKernel=%v termAt=%d: charged %d, want %d", inKernel, termAt, got, want)
			}
		}
		// max reached with no terminator: must error.
		m, sp := newMemMonitor(t, inKernel)
		if err := sp.Poke(fuzzBase, bytes.Repeat([]byte{'c'}, 256)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.readCString(fuzzBase, 256); err == nil {
			t.Fatalf("inKernel=%v: accepted an unterminated max-length string", inKernel)
		}
	}
}
