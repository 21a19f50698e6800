package vm

import (
	"errors"
	"testing"

	"bastion/internal/ir"
)

// callProgram is main calling leaf(7), which returns its argument plus 1.
func callProgram() *ir.Program {
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
		m := mustMachine(t, callProgram())
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
		m := mustMachine(t, callProgram())
		m.MaxSteps = 3
		_, err := m.CallFunction("main")
		check(t, err, ControlFault{Why: "step budget exhausted (runaway guest?)"}, m, 3)
		if got := m.Clock.Cycles; got != 6+1+2+0 {
			t.Fatalf("cycles = %d, want 9 (call, lea, load)", got)
		}
	})
}
