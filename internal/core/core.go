// Package core wires the BASTION pipeline together: compile a guest
// program (analysis + instrumentation + metadata), then launch it under a
// simulated kernel with the runtime monitor attached. The root package
// bastion re-exports this as the public API.
package core

import (
	"fmt"

	"bastion/internal/baseline/cet"
	"bastion/internal/baseline/llvmcfi"
	"bastion/internal/core/analysis"
	"bastion/internal/core/metadata"
	"bastion/internal/core/monitor"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/vm"
)

// Artifact is a compiled, instrumented, linked program plus its context
// metadata — the equivalent of the paper's BASTION-protected binary with
// its generated metadata sidecar.
type Artifact struct {
	Prog  *ir.Program
	Meta  *metadata.Metadata
	Stats analysis.Stats
}

// CompileOptions configures compilation.
type CompileOptions struct {
	// Sensitive overrides the protected syscall set (defaults to Table 1's
	// 20 sensitive syscalls).
	Sensitive []uint32
}

// Compile runs the BASTION compiler pass over a program. The program is
// validated, analyzed, instrumented in place, and linked.
func Compile(p *ir.Program, opts CompileOptions) (*Artifact, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: program invalid: %w", err)
	}
	sens := opts.Sensitive
	if sens == nil {
		sens = kernel.SensitiveSyscalls
	}
	res, err := analysis.Run(p, analysis.Options{Sensitive: sens})
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: instrumented program invalid: %w", err)
	}
	return &Artifact{Prog: res.Prog, Meta: res.Meta, Stats: res.Stats}, nil
}

// Protected is a launched, monitored guest.
type Protected struct {
	Machine *vm.Machine
	Proc    *kernel.Process
	Monitor *monitor.Monitor
	Kernel  *kernel.Kernel
}

// Launch creates a machine for the artifact on kernel k, registers the
// process, and attaches the BASTION monitor (§7.1 launch sequence). Extra
// vm options (mitigations, step limits) may be supplied.
func Launch(a *Artifact, k *kernel.Kernel, cfg monitor.Config, vmOpts ...vm.Option) (*Protected, error) {
	opts := append([]vm.Option{vm.WithOS(k), vm.WithClock(k.Clock)}, vmOpts...)
	m, err := vm.New(a.Prog, opts...)
	if err != nil {
		return nil, err
	}
	proc := k.Register(m)
	mon, err := monitor.Attach(proc, a.Meta, cfg)
	if err != nil {
		return nil, err
	}
	return &Protected{Machine: m, Proc: proc, Monitor: mon, Kernel: k}, nil
}

// LaunchUnprotected creates the baseline: same kernel and VM, no seccomp
// filter, no monitor, intrinsics as no-ops. Used for the unprotected
// columns of the evaluation.
func LaunchUnprotected(a *Artifact, k *kernel.Kernel, vmOpts ...vm.Option) (*Protected, error) {
	opts := append([]vm.Option{vm.WithOS(k), vm.WithClock(k.Clock)}, vmOpts...)
	m, err := vm.New(a.Prog, opts...)
	if err != nil {
		return nil, err
	}
	proc := k.Register(m)
	return &Protected{Machine: m, Proc: proc, Kernel: k}, nil
}

// Defense is one rung of the evaluation's defense ladder (Figure 3's
// mitigation stacks, Table 6's defenses): the baseline mitigations a guest
// runs under plus, when Monitor.Contexts is nonzero, the BASTION monitor.
// It is a value: a copy edited for an ablation never changes the rung it
// was copied from.
type Defense struct {
	Name string
	// CET enforces a shadow stack on returns; CFI enforces LLVM-style
	// type-based indirect-call checks with classes built from the launched
	// program.
	CET, CFI bool
	// Coarse launches the monitor on the pre-refinement AllowedIndirect
	// sets (metadata.CoarseIndirect), the points-to refinement ablation.
	Coarse bool
	// Monitor configures the monitor, attached only when Monitor.Contexts
	// is nonzero.
	Monitor monitor.Config
}

// Enforcing returns the default monitor configuration narrowed to ctx.
func Enforcing(ctx monitor.Context) monitor.Config {
	cfg := monitor.DefaultConfig()
	cfg.Contexts = ctx
	return cfg
}

func (d Defense) String() string { return d.Name }

// Monitored reports whether Launch attaches the monitor.
func (d Defense) Monitored() bool { return d.Monitor.Contexts != 0 }

// Launch starts artifact a on kernel k under d: Launch with d.Monitor when
// d is monitored, LaunchUnprotected otherwise. The defense's mitigations
// precede the extra vm options.
func (d Defense) Launch(a *Artifact, k *kernel.Kernel, opts ...vm.Option) (*Protected, error) {
	var ms []vm.Mitigation
	if d.CET {
		ms = append(ms, cet.New())
	}
	if d.CFI {
		ms = append(ms, llvmcfi.New(a.Prog))
	}
	if len(ms) > 0 {
		opts = append([]vm.Option{vm.WithMitigations(ms...)}, opts...)
	}
	if !d.Monitored() {
		return LaunchUnprotected(a, k, opts...)
	}
	if d.Coarse {
		coarse := *a
		coarse.Meta = a.Meta.CoarseIndirect()
		a = &coarse
		// A precompiled generation belongs to the replaced metadata.
		d.Monitor.Generation = nil
	}
	return Launch(a, k, d.Monitor, opts...)
}
