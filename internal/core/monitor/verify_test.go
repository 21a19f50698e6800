package monitor

// White-box regression tests for the pointee verifier and the indirect
// call-path guard, driving the unexported helpers directly over a fake
// shadow region.

import (
	"strings"
	"testing"

	"bastion/internal/core/metadata"
	"bastion/internal/core/shadow"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/vm"
)

// fakeShadow is a word-addressed memory backing a shadow value table.
type fakeShadow struct {
	words map[uint64]uint64
}

func (f *fakeShadow) Load(addr uint64) (uint64, error) { return f.words[addr], nil }
func (f *fakeShadow) Store(addr, v uint64) error       { f.words[addr] = v; return nil }

// newShadowMonitor builds a Monitor whose shadow reader is backed by an
// in-memory table, with the given (addr, data) value entries recorded.
func newShadowMonitor(t *testing.T, entries map[uint64][]byte) *Monitor {
	t.Helper()
	fs := &fakeShadow{words: map[uint64]uint64{}}
	values := shadow.NewTable(fs, shadow.ValueBase(), shadow.ValueCap)
	for addr, data := range entries {
		v, meta := shadow.EncodeValue(data)
		if err := values.Put(addr, v, meta); err != nil {
			t.Fatalf("Put(%#x): %v", addr, err)
		}
	}
	return &Monitor{
		Cfg:    DefaultConfig(),
		shadow: shadow.Reader{Src: fs},
	}
}

// TestVerifyBytesEntryStraddlingRegionEnd is the regression for the
// zero-padding bug: a shadow entry whose recorded size extends past the
// verified region must be compared only on the in-region bytes, not
// against a zero-padded reconstruction.
func TestVerifyBytesEntryStraddlingRegionEnd(t *testing.T) {
	const base = uint64(0x5000_0000)
	// One 4-byte entry at the start, then an 8-byte entry whose last four
	// bytes extend past the 8-byte region under verification.
	m := newShadowMonitor(t, map[uint64][]byte{
		base:     {0x11, 0x22, 0x33, 0x44},
		base + 4: {0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x01, 0x02},
	})
	region := []byte{0x11, 0x22, 0x33, 0x44, 0xaa, 0xbb, 0xcc, 0xdd}
	if v := m.verifyBytes(kernel.SysBind, 2, base, region, true); v != nil {
		t.Fatalf("legitimate straddling pointee flagged: %v", v)
	}
	// Genuine corruption inside the region is still caught.
	bad := []byte{0x11, 0x22, 0x33, 0x44, 0xaa, 0xbb, 0xcc, 0x99}
	v := m.verifyBytes(kernel.SysBind, 2, base, bad, true)
	if v == nil {
		t.Fatal("corrupted straddling pointee passed")
	}
	if !strings.Contains(v.Reason, "corrupted") {
		t.Fatalf("unexpected reason: %s", v.Reason)
	}
}

// TestVerifyBytesCoverageClamped pins that covered-byte accounting stops
// at the region boundary: a single entry larger than the whole region
// still satisfies the coverage requirement without over-counting.
func TestVerifyBytesCoverageClamped(t *testing.T) {
	const base = uint64(0x5000_1000)
	m := newShadowMonitor(t, map[uint64][]byte{
		base: {1, 2, 3, 4, 5, 6, 7, 8},
	})
	if v := m.verifyBytes(kernel.SysBind, 2, base, []byte{1, 2, 3}, true); v != nil {
		t.Fatalf("prefix of a larger entry flagged: %v", v)
	}
	if v := m.verifyBytes(kernel.SysBind, 2, base, []byte{1, 2, 9}, true); v == nil {
		t.Fatal("corrupted prefix passed")
	}
}

// TestAllowedIndirectEmptySetRejects pins the enforcement semantics of
// AllowedIndirect: a syscall with a present-but-empty set is constrained,
// so every indirect callsite must be rejected, while a syscall with no
// entry is unconstrained.
func TestAllowedIndirectEmptySetRejects(t *testing.T) {
	meta := metadata.New()
	stackBase := ir.StackTop - 64
	meta.Funcs["wrapper"] = metadata.FuncInfo{Name: "wrapper", Entry: 0x401000, End: 0x402000}
	meta.IndirectTargets["wrapper"] = true
	meta.Callsites[0x403004] = metadata.Callsite{
		Addr: 0x403000, RetAddr: 0x403004, Caller: "dispatch", Kind: metadata.SiteIndirect,
	}
	// Each check compiles the metadata as it stands into a generation.
	check := func() *Violation {
		g, err := NewGeneration(0, meta, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		m := &Monitor{gen: g, Cfg: DefaultConfig(), guest: kernel.Tracee{P: &kernel.Process{K: kernel.New(nil)}}}
		regs := vm.Regs{RIP: 0x401500, RBP: stackBase}
		trace := []stackFrame{{Ret: 0x403004, BP: stackBase}}
		return m.checkControlFlow(kernel.SysSocket, regs, trace, true)
	}

	// No entry: unconstrained, the indirect path is accepted.
	if v := check(); v != nil {
		t.Fatalf("unconstrained syscall rejected: %v", v)
	}
	// Present but empty: constrained with no legitimate callsites.
	meta.AllowedIndirect[kernel.SysSocket] = map[uint64]bool{}
	v := check()
	if v == nil {
		t.Fatal("empty allowed set accepted an indirect callsite")
	}
	if !strings.Contains(v.Reason, "cannot legitimately reach") {
		t.Fatalf("unexpected reason: %s", v.Reason)
	}
	// The recorded callsite is accepted once listed.
	meta.AllowedIndirect[kernel.SysSocket][0x403000] = true
	if v := check(); v != nil {
		t.Fatalf("listed callsite rejected: %v", v)
	}
}
