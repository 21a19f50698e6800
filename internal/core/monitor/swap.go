package monitor

import (
	"errors"
	"fmt"

	"bastion/internal/core/metadata"
	"bastion/internal/kernel"
	"bastion/internal/seccomp"
)

// Generation is one versioned artifact bundle for policy hot reload: the
// context metadata, the Policy, the compiled seccomp filter, and the
// filter's identity hash. A fleet builds a Generation once (through its
// shared artifact cache), then stages it into every running tenant; each
// monitor swaps it in at its next trap boundary without restarting the
// guest.
//
// A Generation is immutable after construction and safe to share across
// monitors, exactly like the launch artifacts.
type Generation struct {
	// ID versions the bundle; trap events issued under it are stamped with
	// this value. The launch artifacts are generation 0, so IDs must be
	// positive.
	ID uint64
	// Meta is the context metadata verdicts are judged against.
	Meta *metadata.Metadata
	// Policy replaces the monitor's Config.Policy atomically with the
	// filter and metadata, so a tenant can never observe the new filter
	// with the old metadata or vice versa.
	Policy Policy
	// Filter is the compiled seccomp program. It must equal what
	// BuildFilter produces for (Meta, Policy) — NewGeneration
	// guarantees that by compiling it itself when none is supplied.
	Filter []seccomp.Insn
	// FilterID is seccomp.FilterID(Filter), the kernel-side proof that a
	// swap really replaced the program.
	FilterID uint64
}

// NewGeneration validates and completes a generation bundle: the metadata
// must validate, the ID must be positive, and a missing filter is compiled
// from the metadata and cfg. The generation keeps only cfg.Policy: Mode
// and the other knobs stay those of the running monitor it is grafted
// onto.
func NewGeneration(id uint64, meta *metadata.Metadata, cfg Config, filter []seccomp.Insn) (*Generation, error) {
	if id == 0 {
		return nil, errors.New("monitor: generation id must be positive (0 is the launch generation)")
	}
	if meta == nil {
		return nil, errors.New("monitor: generation needs metadata")
	}
	if err := meta.Validate(); err != nil {
		return nil, fmt.Errorf("monitor: generation %d: %w", id, err)
	}
	if filter == nil {
		var err error
		if filter, err = BuildFilter(meta, cfg); err != nil {
			return nil, fmt.Errorf("monitor: generation %d: %w", id, err)
		}
	}
	return &Generation{
		ID:       id,
		Meta:     meta,
		Policy:   cfg.Policy,
		Filter:   filter,
		FilterID: seccomp.FilterID(filter),
	}, nil
}

// StageGeneration arms a hot reload: the generation is applied at the END
// of the next trap, after that trap's verdicts are issued and observed
// under the current generation. Applying at a trap boundary — never
// mid-judgment, never between filter and metadata — is what rules out torn
// policy: every trap the guest ever takes is judged by one generation's
// filter AND that same generation's metadata.
//
// Staging replaces any previously staged, not-yet-applied generation.
func (m *Monitor) StageGeneration(g *Generation) error {
	if g == nil {
		return errors.New("monitor: nil generation")
	}
	if g.ID == 0 {
		return errors.New("monitor: generation id must be positive")
	}
	if g.Meta == nil || g.Filter == nil {
		return errors.New("monitor: generation is incomplete (use NewGeneration)")
	}
	m.staged = g
	return nil
}

// GenerationID reports the artifact generation the monitor currently
// enforces (0 until the first hot reload applies).
func (m *Monitor) GenerationID() uint64 { return m.gen }

// StagedGeneration reports the armed-but-not-yet-applied generation, nil
// when none is pending.
func (m *Monitor) StagedGeneration() *Generation { return m.staged }

// reloadCycles models the cost of swapping a generation into a live
// monitor: filter installation plus re-deriving the metadata-dependent
// projections. Far cheaper than InitCycles — symbol recovery and shadow
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
//
// Side effects, in order: the kernel filter is replaced, Config.Policy and
// the metadata switch together, the offload plan and the syscall-flow
// projection are re-derived from the new pair.
// The syscall-flow runtime state (last trapped syscall) survives: it
// records what the guest actually executed, which no policy change
// rewrites.
func (m *Monitor) applyGeneration(p *kernel.Process) error {
	g := m.staged
	m.staged = nil
	if err := p.SetSeccompFilter(g.Filter); err != nil {
		return fmt.Errorf("monitor: applying generation %d: %w", g.ID, err)
	}
	m.Meta = g.Meta
	m.funcs = metadata.NewFuncIndex(g.Meta)
	m.Cfg.Policy = g.Policy
	m.Cfg.Filter = g.Filter
	m.Offload = DeriveOffload(g.Meta, m.Cfg)

	m.sfEnforce = false
	m.sfStart = nil
	m.sfEdges = nil
	m.buildFlowProjection()

	reload := reloadCycles(g.Meta)
	p.K.Clock.Add(reload)
	m.ReloadCycles += reload
	m.Reloads++
	m.gen = g.ID
	return nil
}
