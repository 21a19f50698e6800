// Package cet models Intel CET's hardware shadow stack (backward-edge
// protection): every call pushes the return address onto a stack the
// application cannot address; every return compares the program return
// address with the shadow copy and faults on mismatch. BASTION's
// evaluation deploys CET alongside every configuration (Figure 3's CET
// column and the CET+CT/+CF/+AI stacks).
package cet

import (
	"bastion/internal/ir"
	"bastion/internal/vm"
)

// ShadowStack is a vm.Mitigation implementing the CET semantics.
type ShadowStack struct {
	stack []uint64

	// PushPopCost is charged per call and per return (hardware cost is
	// nearly free; nonzero keeps the "CET incurs negligible overhead"
	// claim measurable).
	PushPopCost uint64

	// Violations counts blocked returns.
	Violations uint64
}

// New returns a shadow stack with the calibrated default cost.
func New() *ShadowStack { return &ShadowStack{PushPopCost: 8} }

// OnCall pushes the return address.
func (s *ShadowStack) OnCall(m *vm.Machine, retaddr uint64) {
	m.Clock.Add(s.PushPopCost)
	s.stack = append(s.stack, retaddr)
}

// OnRet pops and compares; a mismatch is a control-protection fault.
func (s *ShadowStack) OnRet(m *vm.Machine, retaddr uint64) error {
	m.Clock.Add(s.PushPopCost)
	if len(s.stack) == 0 {
		s.Violations++
		return &vm.KillError{By: "cet", Reason: "return with empty shadow stack"}
	}
	want := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	if retaddr != want {
		s.Violations++
		return &vm.KillError{By: "cet", Reason: "shadow stack mismatch (ROP return)"}
	}
	return nil
}

// OnIndirectCall is a no-op: CET's IBT is not modeled (the paper pairs CET
// with BASTION for backward edges only).
func (s *ShadowStack) OnIndirectCall(*vm.Machine, *ir.Instr, uint64) error { return nil }
