package vm

import (
	"errors"
	"strings"
	"testing"

	"bastion/internal/ir"
)

func TestTraceStreamsDisassembly(t *testing.T) {
	p := ir.NewProgram()
	leaf := ir.NewBuilder("leaf", 1)
	v := leaf.LoadLocal("p0")
	leaf.Ret(ir.R(v))
	p.AddFunc(leaf.Build())
	b := ir.NewBuilder("main", 0)
	r := b.Call("leaf", ir.Imm(7))
	b.Ret(ir.R(r))
	p.AddFunc(b.Build())
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	m, err := New(p, WithTrace(&sb, 0))
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 1 << 12
	if got, err := m.CallFunction("main"); err != nil || got != 7 {
		t.Fatalf("run: %d, %v", got, err)
	}
	out := sb.String()
	for _, want := range []string{"main+", "leaf+", "call leaf(7)", "ret r"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}

	// The limit caps output.
	var small strings.Builder
	m2, err := New(p, WithTrace(&small, 2))
	if err != nil {
		t.Fatal(err)
	}
	m2.MaxSteps = 1 << 12
	if _, err := m2.CallFunction("main"); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(small.String(), "\n"); n > 2 {
		t.Fatalf("trace limit ignored: %d lines", n)
	}
}

// traceProgram is main calling leaf(7), which returns its argument plus 1.
func traceProgram() *ir.Program {
	p := ir.NewProgram()
	leaf := ir.NewBuilder("leaf", 1)
	v := leaf.LoadLocal("p0")
	s := leaf.Bin(ir.OpAdd, ir.R(v), ir.Imm(1))
	leaf.Ret(ir.R(s))
	p.AddFunc(leaf.Build())
	b := ir.NewBuilder("main", 0)
	r := b.Call("leaf", ir.Imm(7))
	b.Ret(ir.R(r))
	p.AddFunc(b.Build())
	return p
}

// TestTraceLinesPinned pins every WithTrace line of a call and return:
// address, function+index and disassembly of each executed instruction.
func TestTraceLinesPinned(t *testing.T) {
	var sb strings.Builder
	m := mustMachine(t, traceProgram(), WithTrace(&sb, 0))
	if got, err := m.CallFunction("main"); err != nil || got != 8 {
		t.Fatalf("run: %d, %v", got, err)
	}
	want := `0x400020 main+0: r0 = call leaf(7)
0x400000 leaf+0: r0 = lea slot0+0
0x400004 leaf+1: r1 = load8 [r0+0]
0x400008 leaf+2: r2 = add r1, 1
0x40000c leaf+3: ret r2
0x400024 main+1: ret r0
`
	if got := sb.String(); got != want {
		t.Fatalf("trace:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceAfterRedirectingHook: a hook that moves the frame to another
// instruction is traced at the instruction that actually runs, address
// included.
func TestTraceAfterRedirectingHook(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewBuilder("main", 0)
	r := b.Const(1)
	b.ConstInto(r, 2)
	b.Ret(ir.R(r))
	p.AddFunc(b.Build())
	var sb strings.Builder
	m := mustMachine(t, p, WithTrace(&sb, 0))
	if err := m.HookFunc("main", 0, func(m *Machine) error {
		m.frames[len(m.frames)-1].idx = 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := m.CallFunction("main"); err != nil || got != 2 {
		t.Fatalf("run: %d, %v", got, err)
	}
	want := `0x400004 main+1: r0 = const 2
0x400008 main+2: ret r0
`
	if got := sb.String(); got != want {
		t.Fatalf("trace:\n%s\nwant:\n%s", got, want)
	}
}

// TestControlFaultsPinned pins the address, reason and step count of the
// interpreter's three step-level control faults.
func TestControlFaultsPinned(t *testing.T) {
	check := func(t *testing.T, err error, want ControlFault, m *Machine, steps uint64) {
		t.Helper()
		var cf *ControlFault
		if !errors.As(err, &cf) || *cf != want {
			t.Fatalf("err = %v, want %v", err, &want)
		}
		if m.Steps != steps {
			t.Fatalf("Steps = %d, want %d", m.Steps, steps)
		}
	}

	t.Run("hook past end", func(t *testing.T) {
		m := mustMachine(t, traceProgram())
		if err := m.HookFunc("leaf", 2, func(m *Machine) error {
			m.frames[len(m.frames)-1].idx = 4
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		_, err := m.CallFunction("main")
		check(t, err, ControlFault{Addr: 0x400010, Why: "hook left pc past function end"}, m, 4)
	})

	t.Run("ran off end", func(t *testing.T) {
		// No terminator, so the program skips Validate.
		p := ir.NewProgram()
		b := ir.NewBuilder("main", 0)
		b.Const(1)
		p.AddFunc(b.Build())
		if err := p.Link(); err != nil {
			t.Fatal(err)
		}
		m, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.CallFunction("main")
		check(t, err, ControlFault{Addr: 0x400004, Why: "execution ran off function end"}, m, 2)
	})

	t.Run("step budget", func(t *testing.T) {
		m := mustMachine(t, traceProgram())
		m.MaxSteps = 3
		_, err := m.CallFunction("main")
		check(t, err, ControlFault{Why: "step budget exhausted (runaway guest?)"}, m, 3)
		if got := m.Clock.Cycles; got != 6+1+2+0 {
			t.Fatalf("cycles = %d, want 9 (call, lea, load)", got)
		}
	})
}
