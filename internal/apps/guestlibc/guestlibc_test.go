package guestlibc_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/ir"
	"bastion/internal/vm"
)

// newMachine builds a machine over the libc program plus a trampoline main
// (the validator requires an entry point).
func newMachine(t *testing.T) *vm.Machine {
	t.Helper()
	p := guestlibc.NewProgram()
	b := ir.NewBuilder("main", 0)
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(p)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 1 << 22
	return m
}

// scratch maps a page for string fixtures and returns its base.
func scratch(t *testing.T, m *vm.Machine) uint64 {
	t.Helper()
	const base = 0x2000_0000
	if err := m.Mem.Map(base, 8192, 0b011); err != nil {
		t.Fatal(err)
	}
	return base
}

func TestEveryWrapperIsAValidSyscallStub(t *testing.T) {
	p := ir.NewProgram()
	guestlibc.AddSyscallWrappers(p)
	if len(p.Funcs) < 30 {
		t.Fatalf("only %d wrappers", len(p.Funcs))
	}
	seenNr := map[int64]string{}
	for _, f := range p.Funcs {
		nr, ok := ir.SyscallNumber(f)
		if !ok {
			t.Errorf("%s has no constant syscall number", f.Name)
		}
		if prev, dup := seenNr[nr]; dup {
			t.Errorf("%s and %s share syscall number %d", f.Name, prev, nr)
		}
		seenNr[nr] = f.Name
	}
}

func TestStrlen(t *testing.T) {
	m := newMachine(t)
	base := scratch(t, m)
	for _, s := range []string{"", "a", "hello world", string(bytes.Repeat([]byte{'x'}, 300))} {
		if err := m.Mem.Write(base, append([]byte(s), 0)); err != nil {
			t.Fatal(err)
		}
		got, err := m.CallFunction("strlen", base)
		if err != nil {
			t.Fatalf("strlen(%q): %v", s, err)
		}
		if got != uint64(len(s)) {
			t.Fatalf("strlen(%q) = %d", s, got)
		}
	}
}

func TestMemcpyMemsetMemcmpProperty(t *testing.T) {
	m := newMachine(t)
	base := scratch(t, m)
	src, dst := base, base+2048

	f := func(data []byte, fill byte) bool {
		if len(data) == 0 || len(data) > 1024 {
			return true
		}
		if err := m.Mem.Write(src, data); err != nil {
			return false
		}
		// memset the destination, then memcpy over it, then memcmp.
		if _, err := m.CallFunction("memset", dst, uint64(fill), uint64(len(data))); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := m.Mem.Read(dst, got); err != nil {
			return false
		}
		for _, b := range got {
			if b != fill {
				return false
			}
		}
		if _, err := m.CallFunction("memcpy", dst, src, uint64(len(data))); err != nil {
			return false
		}
		if err := m.Mem.Read(dst, got); err != nil {
			return false
		}
		if !bytes.Equal(got, data) {
			return false
		}
		eq, err := m.CallFunction("memcmp", dst, src, uint64(len(data)))
		return err == nil && eq == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMemcmpDetectsDifference(t *testing.T) {
	m := newMachine(t)
	base := scratch(t, m)
	m.Mem.Write(base, []byte("abcdef"))
	m.Mem.Write(base+100, []byte("abcxef"))
	got, err := m.CallFunction("memcmp", base, base+100, 6)
	if err != nil || got != 1 {
		t.Fatalf("memcmp = %d, %v", got, err)
	}
	got, err = m.CallFunction("memcmp", base, base+100, 3)
	if err != nil || got != 0 {
		t.Fatalf("memcmp prefix = %d, %v", got, err)
	}
}

func TestStreq(t *testing.T) {
	m := newMachine(t)
	base := scratch(t, m)
	cases := []struct {
		a, b string
		want uint64
	}{
		{"", "", 1},
		{"abc", "abc", 1},
		{"abc", "abd", 0},
		{"abc", "abcd", 0},
		{"abcd", "abc", 0},
	}
	for _, tc := range cases {
		m.Mem.Write(base, append([]byte(tc.a), 0))
		m.Mem.Write(base+512, append([]byte(tc.b), 0))
		got, err := m.CallFunction("streq", base, base+512)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("streq(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}
