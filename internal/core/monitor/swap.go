package monitor

import (
	"errors"
	"fmt"

	"bastion/internal/core/metadata"
	"bastion/internal/kernel"
	"bastion/internal/seccomp"
)

// Generation is everything the monitor derives from one (metadata, Mode,
// Policy): the seccomp policy and the filter compiled from it, the offload
// plan, the dense lookup tables and the syscall-flow projection. NewGeneration
// is the only place any of it is derived. Attach installs the launch
// generation (ID 0) and a hot reload swaps in a later one at a trap
// boundary, both through the same install step, so a fleet compiles each
// generation once per workload and shares it across every tenant.
//
// A Generation is immutable after construction and safe to share across
// monitors, exactly like the launch artifacts.
type Generation struct {
	// ID versions the bundle; trap events issued under it are stamped with
	// this value. The launch generation is 0; a staged one must be
	// positive. A copy with another ID shares every compiled table.
	ID uint64
	// Meta is the context metadata verdicts are judged against.
	Meta *metadata.Metadata
	// Mode and Policy are what the generation was compiled under. A
	// monitor takes a generation only under its own Mode; the Policy
	// replaces the monitor's Config.Policy together with the filter and
	// the metadata, so a tenant can never observe one without the others.
	Mode   Mode
	Policy Policy
	// Seccomp is the seccomp policy, and Filter the program compiled from
	// it.
	Seccomp *seccomp.Policy
	Filter  []seccomp.Insn
	// Offload is the in-filter verdict plan (empty unless Policy.Offload
	// qualified anything). Syscalls it covers are decided inside the
	// seccomp program and never reach Trap; the kernel's per-nr RET_LOG
	// counts are the avoided-trap ground truth, bound into Metrics as
	// monitor_offload_avoided_total.
	Offload *OffloadPlan

	// tables answers every metadata lookup a trap makes (see tables.go).
	tables *tables
	// sfStart and sfEdges project the metadata transition graph onto the
	// trapped syscall set (see projectFlow), as syscall-slot bitmasks:
	// sfStart marks the syscalls that may open the flow, sfEdges[s] the
	// legal successors of slot s. sfEnforce is false when the SyscallFlow
	// context is off, the Mode is not ModeFull, or the metadata carries no
	// (or an empty) flow graph.
	sfEnforce bool
	sfStart   uint64
	sfEdges   [kernel.NrSlots + 1]uint64
	// compiled marks a generation NewGeneration built; a literal one lacks
	// the unexported tables and is refused.
	compiled bool
}

// NewGeneration compiles generation id from the metadata, which must
// validate, under cfg's Mode and Policy; no other field of cfg matters.
// The metadata must not change afterwards: the generation's tables are
// compiled from it once.
func NewGeneration(id uint64, meta *metadata.Metadata, cfg Config) (*Generation, error) {
	if meta == nil {
		return nil, errors.New("monitor: generation needs metadata")
	}
	if err := meta.Validate(); err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	t, err := buildTables(meta)
	if err != nil {
		return nil, err
	}
	g := &Generation{
		ID:       id,
		Meta:     meta,
		Mode:     cfg.Mode,
		Policy:   cfg.Policy,
		Offload:  DeriveOffload(meta, cfg),
		tables:   t,
		compiled: true,
	}
	g.Seccomp = buildPolicy(meta, cfg, g.Offload)
	if cfg.TreeFilter {
		g.Filter, err = g.Seccomp.CompileTree()
	} else {
		g.Filter, err = g.Seccomp.Compile()
	}
	if err != nil {
		return nil, err
	}
	g.projectFlow()
	return g, nil
}

// StageGeneration arms a hot reload: the generation is applied at the END
// of the next trap, after that trap's verdicts are issued and observed
// under the current generation. Applying at a trap boundary — never
// mid-judgment, never between filter and metadata — is what rules out torn
// policy: every trap the guest ever takes is judged by one generation's
// filter AND that same generation's metadata. A generation compiled under
// another Mode fails closed: Mode is a launch decision.
//
// Staging replaces any previously staged, not-yet-applied generation.
func (m *Monitor) StageGeneration(g *Generation) error {
	if g == nil {
		return errors.New("monitor: nil generation")
	}
	if g.ID == 0 {
		return errors.New("monitor: generation id must be positive (0 is the launch generation)")
	}
	if !g.compiled {
		return errors.New("monitor: generation is incomplete (use NewGeneration)")
	}
	if g.Mode != m.Cfg.Mode {
		return fmt.Errorf("monitor: generation %d was compiled for mode %s, the monitor runs %s", g.ID, g.Mode, m.Cfg.Mode)
	}
	m.staged = g
	return nil
}

// Generation reports the generation the monitor currently enforces (ID 0
// until the first hot reload applies).
func (m *Monitor) Generation() *Generation { return m.gen }

// install makes g the enforced generation: its filter goes into the
// kernel, and its metadata, tables and Policy into the monitor, together.
// Attach and applyGeneration both install through it; neither derives
// anything.
func (m *Monitor) install(p *kernel.Process, g *Generation) error {
	if err := p.SetSeccompFilter(g.Filter); err != nil {
		return err
	}
	m.gen = g
	m.Cfg.Policy = g.Policy
	return nil
}

// reloadCycles models the cost of swapping a generation into a live
// monitor: filter installation plus loading the metadata-dependent
// tables. Far cheaper than InitCycles — symbol recovery and shadow
// setup are launch-only work — and proportional to metadata size for the
// same reason InitCycles is.
func reloadCycles(meta *metadata.Metadata) uint64 {
	return 10_000 +
		8*uint64(len(meta.Callsites)) +
		24*uint64(len(meta.ArgSites)) +
		5*uint64(len(meta.Funcs))
}

// applyGeneration performs the staged swap. It runs only from Trap, after
// the boundary trap's verdicts were issued and observed under the old
// generation, so the swap is atomic from the guest's perspective: the next
// syscall meets the new filter, and if it traps, the new metadata.
// The syscall-flow runtime state (last trapped syscall) survives: it
// records what the guest actually executed, which no policy change
// rewrites.
func (m *Monitor) applyGeneration(p *kernel.Process) error {
	g := m.staged
	m.staged = nil
	if err := m.install(p, g); err != nil {
		return fmt.Errorf("monitor: applying generation %d: %w", g.ID, err)
	}
	reload := reloadCycles(g.Meta)
	p.K.Clock.Add(reload)
	m.ReloadCycles += reload
	m.Reloads++
	return nil
}
