package cet_test

import (
	"errors"
	"testing"

	"bastion/internal/baseline/cet"
	"bastion/internal/ir"
	"bastion/internal/vm"
)

// buildCallChain: main -> a -> b, plus a "target" never on the chain and a
// victim whose saved return address a hook will overwrite.
func buildCallChain() *ir.Program {
	p := ir.NewProgram()
	tb := ir.NewBuilder("target", 0)
	tb.Ret(ir.Imm(99))
	p.AddFunc(tb.Build())

	bb := ir.NewBuilder("b", 0)
	bb.Ret(ir.Imm(2))
	p.AddFunc(bb.Build())

	ab := ir.NewBuilder("a", 0)
	r := ab.Call("b")
	ab.Ret(ir.R(r))
	p.AddFunc(ab.Build())

	mb := ir.NewBuilder("main", 0)
	r2 := mb.Call("a")
	mb.Ret(ir.R(r2))
	p.AddFunc(mb.Build())
	return p
}

func TestCleanRunUnaffected(t *testing.T) {
	p := buildCallChain()
	ss := cet.New()
	m, err := vm.New(p, vm.WithMitigations(ss))
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 1 << 16
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 2 {
		t.Fatalf("got %d", got)
	}
	if ss.Violations != 0 {
		t.Fatalf("violations=%d", ss.Violations)
	}
}

func TestROPReturnBlocked(t *testing.T) {
	p := buildCallChain()
	ss := cet.New()
	m, err := vm.New(p, vm.WithMitigations(ss))
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 1 << 16
	// When b starts, overwrite its saved return address with target's
	// entry: the classic return hijack CET exists to stop.
	if err := m.HookFunc("b", 0, func(mm *vm.Machine) error {
		return mm.Mem.WriteUint(mm.RBP()+8, p.Func("target").Base, 8)
	}); err != nil {
		t.Fatal(err)
	}
	_, err = m.CallFunction("main")
	var ke *vm.KillError
	if !errors.As(err, &ke) || ke.By != "cet" {
		t.Fatalf("err = %v, want cet kill", err)
	}
	if ss.Violations != 1 {
		t.Fatalf("violations = %d", ss.Violations)
	}
}

func TestCostCharged(t *testing.T) {
	p := buildCallChain()
	ss := cet.New()
	c := &vm.Clock{}
	m, err := vm.New(p, vm.WithMitigations(ss), vm.WithClock(c))
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 1 << 16
	if _, err := m.CallFunction("main"); err != nil {
		t.Fatal(err)
	}
	withCET := c.Cycles

	p2 := buildCallChain()
	c2 := &vm.Clock{}
	m2, err := vm.New(p2, vm.WithClock(c2))
	if err != nil {
		t.Fatal(err)
	}
	m2.MaxSteps = 1 << 16
	if _, err := m2.CallFunction("main"); err != nil {
		t.Fatal(err)
	}
	if withCET <= c2.Cycles {
		t.Fatalf("CET cost not charged: %d vs %d", withCET, c2.Cycles)
	}
}
