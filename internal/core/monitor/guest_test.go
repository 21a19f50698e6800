package monitor

// White-box tests for the monitor's one access to the guest: what each
// access charges under ptrace and in-kernel costs, and how a shadow read
// that fails is judged.

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"bastion/internal/core/metadata"
	"bastion/internal/core/shadow"
	"bastion/internal/kernel"
	"bastion/internal/mem"
	"bastion/internal/vm"
)

// TestGuestAccessCharges pins every charge of the monitor's guest access
// under both settings: a word read costs 2,502 cycles under ptrace and 2
// in-kernel, the register fetch 2,600 + 700 under ptrace and 4 in-kernel,
// and every other read, a stream included, is one charge of its n bytes:
// the word read's fixed part plus 2 per started word. A stream's n is the
// bytes mapped contiguously from its start, so a forged digest size costs
// the one mapped page, not the size. Each access must also return the
// same value and fail with the same fault under both.
func TestGuestAccessCharges(t *testing.T) {
	end := fuzzBase + mem.PageSize // first unmapped address
	type access struct {
		name  string
		n     uint64 // bytes charged; 0 for the register fetch
		fails bool
		do    func(m *Monitor) (any, error)
	}
	read := func(addr, n uint64) func(m *Monitor) (any, error) {
		return func(m *Monitor) (any, error) {
			buf := make([]byte, n)
			err := m.guest.Read(addr, buf)
			return buf, err
		}
	}
	uintAt := func(addr uint64, size int64) func(m *Monitor) (any, error) {
		return func(m *Monitor) (any, error) { return m.guest.Uint(addr, size) }
	}
	stream := func(addr, n uint64) func(m *Monitor) (any, error) {
		return func(m *Monitor) (any, error) {
			var got []byte
			err := m.guest.Stream(addr, n, func(b []byte) { got = append(got, b...) })
			return got, err
		}
	}
	accesses := []access{
		{"fetch", 0, false, func(m *Monitor) (any, error) { return m.guest.Regs(), nil }},
		{"word", 8, false, func(m *Monitor) (any, error) { return m.guest.Load(fuzzBase) }},
		{"word across the mapping end", 8, true, func(m *Monitor) (any, error) { return m.guest.Load(end - 4) }},
		{"word unmapped", 8, true, func(m *Monitor) (any, error) { return m.guest.Load(end + 64) }},
		{"uint8", 1, false, uintAt(fuzzBase+5, 1)},
		{"uint16", 2, false, uintAt(fuzzBase+3, 2)},
		{"uint32 across the mapping end", 4, true, uintAt(end-2, 4)},
		{"range", 100, false, read(fuzzBase+7, 100)},
		{"range past the mapping end", 64, true, read(end-10, 64)},
		{"empty stream", 0, false, stream(fuzzBase, 0)},
		{"stream", 4000, false, stream(fuzzBase+9, 4000)},
		{"stream past the mapping end", 4096, true, stream(fuzzBase+1, 4096)},
		{"stream of a forged digest size", mem.PageSize, true, stream(fuzzBase, 1<<31)},
		{"string", 64, false, func(m *Monitor) (any, error) { return m.readCString(fuzzBase+200, 64) }},
		{"string unmapped", 16, true, func(m *Monitor) (any, error) { return m.readCString(end+8, 16) }},
	}
	settings := []struct {
		inKernel    bool
		fetch, word uint64
	}{
		{false, 2600 + 700, 2502},
		{true, 4, 2},
	}
	type result struct {
		v   any
		err error
	}
	pattern := make([]byte, mem.PageSize)
	for i := range pattern {
		pattern[i] = byte(i*13 + 1)
	}
	pattern[200+40] = 0 // ends the string at fuzzBase+200
	var first []result
	for _, s := range settings {
		m, sp := newMemMonitor(t, s.inKernel)
		if err := sp.Poke(fuzzBase, pattern); err != nil {
			t.Fatal(err)
		}
		m.guest.P.M.SysRegs = vm.Regs{RAX: kernel.SysMprotect, RDI: 0x1000, RBP: fuzzBase}
		clk := &m.guest.P.K.Clock.Cycles
		perWord := m.guest.P.K.Costs.ReadMemPerWord
		for i, a := range accesses {
			want := s.fetch
			if a.name != "fetch" {
				want = s.word - perWord + perWord*((a.n+7)/8)
			}
			before := *clk
			v, err := a.do(m)
			if got := *clk - before; got != want {
				t.Errorf("inKernel=%v %s: charged %d cycles, want %d", s.inKernel, a.name, got, want)
			}
			if (err != nil) != a.fails {
				t.Errorf("inKernel=%v %s: error %v", s.inKernel, a.name, err)
			}
			if len(first) <= i {
				first = append(first, result{v, err})
			} else if !reflect.DeepEqual(err, first[i].err) || !reflect.DeepEqual(v, first[i].v) {
				t.Errorf("%s: in-kernel gives %v, %v; ptrace %v, %v", a.name, v, err, first[i].v, first[i].err)
			}
		}
	}
	if v, want := first[1].v, binary.LittleEndian.Uint64(pattern); v != want {
		t.Errorf("word = %#x, want %#x", v, want)
	}
	if v, want := first[13].v, string(pattern[200:240]); v != want {
		t.Errorf("string = %q, want %q", v, want)
	}
}

// failingShadow is a shadow whose binding-table reads fail, as an
// unmapped shadow page or a binding table crowded past shadow.MaxProbe
// makes them fail.
type failingShadow struct{ fakeShadow }

func (f *failingShadow) Load(addr uint64) (uint64, error) {
	if addr >= shadow.BindBase() {
		return 0, errors.New("shadow page unmapped")
	}
	return f.fakeShadow.Load(addr)
}

// TestOuterBindingReadErrorIsViolation: a memory-backed argument of an
// outer frame whose binding cannot be read is an argument-integrity
// violation, not a frame the check skips; a binding that reads as absent
// is still skipped.
func TestOuterBindingReadErrorIsViolation(t *testing.T) {
	meta := metadata.New()
	meta.Callsites[0x403004] = metadata.Callsite{Addr: 0x403000, RetAddr: 0x403004, Caller: "outer", Kind: metadata.SiteDirect, Target: "mprotect"}
	meta.ArgSites[0x403000] = metadata.ArgSite{Addr: 0x403000, Caller: "outer", Target: "mprotect", IsSyscall: true}
	meta.Callsites[0x404004] = metadata.Callsite{Addr: 0x404000, RetAddr: 0x404004, Caller: "main", Kind: metadata.SiteDirect, Target: "outer"}
	meta.ArgSites[0x404000] = metadata.ArgSite{Addr: 0x404000, Caller: "main", Target: "outer",
		Args: []metadata.ArgSpec{{Pos: 1, Kind: metadata.ArgMem, Size: 8}}}
	trace := []stackFrame{{Ret: 0x403004, BP: 0x100}, {Ret: 0x404004, BP: 0x200}}
	g, err := NewGeneration(0, meta, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	newMon := func(src shadow.Loader) *Monitor {
		return &Monitor{gen: g, Cfg: DefaultConfig(),
			guest: kernel.Tracee{P: &kernel.Process{K: kernel.New(nil)}}, shadow: shadow.Reader{Src: src}}
	}

	fs := &fakeShadow{words: map[uint64]uint64{}}
	if v := newMon(fs).checkArgIntegrity(kernel.SysMprotect, vm.Regs{}, trace); v != nil {
		t.Fatalf("unbound outer argument flagged: %v", v)
	}
	v := newMon(&failingShadow{*fs}).checkArgIntegrity(kernel.SysMprotect, vm.Regs{}, trace)
	if v == nil {
		t.Fatal("unreadable outer binding skipped")
	}
	if v.Context != ArgIntegrity || !strings.Contains(v.Reason, "binding unreadable") {
		t.Fatalf("violation = %v", v)
	}
}
