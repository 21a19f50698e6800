// Package temporal implements the temporal system-call-specialization
// baseline the paper contrasts with in §12 (Ghavamnia et al., USENIX
// Security 2020): the filter is an allowlist that tightens when the
// application transitions from its initialization phase to its serving
// phase. BASTION's argument — reproduced by test — is that attacks like
// Control Jujutsu and AOCR leverage system calls that remain permitted in
// the serving phase (NGINX's binary-upgrade execve, its accept/mmap mix),
// so even a perfectly derived temporal allowlist cannot block them, while
// context enforcement can.
package temporal

import (
	"fmt"

	"bastion/internal/kernel"
	"bastion/internal/seccomp"
)

// Profile is a phase's observed syscall set.
type Profile map[uint32]bool

// NewProfile collects numbers into a profile.
func NewProfile(nrs ...uint32) Profile {
	p := Profile{}
	for _, nr := range nrs {
		p[nr] = true
	}
	return p
}

// Observe merges a process's invocation counts into the profile (the
// dynamic-profiling step the temporal-filtering papers use). The overflow
// slot pools the unimplemented numbers and names none of them, so they
// stay out of the profile: a kill-by-default allowlist kills them, where
// the kernel would only have answered ENOSYS.
func (p Profile) Observe(counts *kernel.Counts) {
	for s, n := range counts[:kernel.NrSlots] {
		if n > 0 {
			p[kernel.SlotNr(s)] = true
		}
	}
}

// Filter is a two-phase temporal allowlist.
type Filter struct {
	Init    Profile
	Serving Profile

	// Phase is the current phase name, for diagnostics.
	Phase string
}

// New builds the filter from the two phase profiles. Exit paths are always
// permitted.
func New(initP, servingP Profile) *Filter {
	for _, p := range []Profile{initP, servingP} {
		p[kernel.SysExit] = true
		p[kernel.SysExitGroup] = true
	}
	return &Filter{Init: initP, Serving: servingP, Phase: "init"}
}

// compile lowers an allowlist profile to a kill-by-default seccomp program.
func compile(p Profile) ([]seccomp.Insn, error) {
	pol := &seccomp.Policy{
		Default:   seccomp.RetKill,
		Actions:   map[uint32]uint32{},
		CheckArch: true,
	}
	for nr := range p {
		pol.Actions[nr] = seccomp.RetAllow
	}
	return pol.Compile()
}

// Install applies the initialization-phase allowlist.
func (f *Filter) Install(proc *kernel.Process) error {
	prog, err := compile(f.Init)
	if err != nil {
		return fmt.Errorf("temporal: %w", err)
	}
	f.Phase = "init"
	return proc.SetSeccompFilter(prog)
}

// EnterServingPhase swaps in the tightened serving-phase allowlist (the
// transition point the scheme inserts after initialization).
func (f *Filter) EnterServingPhase(proc *kernel.Process) error {
	prog, err := compile(f.Serving)
	if err != nil {
		return fmt.Errorf("temporal: %w", err)
	}
	f.Phase = "serving"
	return proc.SetSeccompFilter(prog)
}
