// Package llvmcfi models Clang's coarse-grained forward-edge CFI
// (-fsanitize=cfi): every indirect callsite verifies that the target is an
// address-taken function whose type signature matches the callsite's
// static type. This is the comparison baseline of §9.2 and §10 — cheap,
// but bypassable by type-matched targets (AOCR), counterfeit objects
// (COOP), and non-pointer corruption (NEWTON), which is exactly what the
// security evaluation reproduces.
package llvmcfi

import (
	"fmt"

	"bastion/internal/ir"
	"bastion/internal/vm"
)

// CFI is a vm.Mitigation implementing coarse type-based indirect-call
// checking.
type CFI struct {
	// classes maps a function entry address to its type signature; only
	// address-taken functions are legal indirect targets.
	classes map[uint64]string

	// CheckCost is charged per indirect call (the jump-table compare).
	CheckCost uint64

	// Checks and Violations count indirect-call verifications.
	Checks     uint64
	Violations uint64
}

// New builds the CFI policy for a linked program: the equivalence classes
// are "address-taken functions grouped by type signature", as Clang's
// CFI-icall scheme derives.
func New(p *ir.Program) *CFI {
	c := &CFI{classes: map[uint64]string{}, CheckCost: 120}
	for _, f := range p.Funcs {
		for i := range f.Code {
			in := &f.Code[i]
			if in.Kind == ir.FuncAddr {
				if target := p.Func(in.Sym); target != nil {
					c.classes[target.Base] = target.TypeSig
				}
			}
		}
	}
	return c
}

// OnCall is a no-op (forward edge only).
func (c *CFI) OnCall(*vm.Machine, uint64) {}

// OnRet is a no-op (forward edge only).
func (c *CFI) OnRet(*vm.Machine, uint64) error { return nil }

// OnIndirectCall verifies the target's membership in the callsite's
// equivalence class.
func (c *CFI) OnIndirectCall(m *vm.Machine, in *ir.Instr, target uint64) error {
	c.Checks++
	m.Clock.Add(c.CheckCost)
	sig, taken := c.classes[target]
	if !taken {
		c.Violations++
		return &vm.KillError{By: "cfi", Reason: fmt.Sprintf("indirect call to non-address-taken target %#x", target)}
	}
	if in.TypeSig != "" && sig != in.TypeSig {
		c.Violations++
		return &vm.KillError{By: "cfi", Reason: fmt.Sprintf("indirect call type mismatch: callsite %q, target %q", in.TypeSig, sig)}
	}
	return nil
}
