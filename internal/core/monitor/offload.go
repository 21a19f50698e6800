package monitor

import (
	"slices"

	"bastion/internal/core/metadata"
	"bastion/internal/kernel"
	"bastion/internal/seccomp"
)

// OffloadPlan is the set of per-syscall verdicts the offload compiler
// answers inside the seccomp program instead of trapping to the monitor.
// Each rule allows the call in-filter (SECCOMP_RET_LOG, so the kernel
// audit-counts the avoided trap) when the syscall's constant-argument
// equalities hold, and falls through to SECCOMP_RET_TRACE — the residual
// ptrace monitor — on any mismatch. The plan is a pure function of the
// metadata, Mode and Policy; each Generation derives it once.
type OffloadPlan struct {
	// Rules maps syscall number to its in-filter decision.
	Rules map[uint32]seccomp.ArgRule
}

// Offloaded returns the offloaded syscall numbers in ascending order.
func (p *OffloadPlan) Offloaded() []uint32 {
	nrs := make([]uint32, 0, len(p.Rules))
	for nr := range p.Rules {
		nrs = append(nrs, nr)
	}
	slices.Sort(nrs)
	return nrs
}

// DeriveOffload computes which trapped syscalls are decidable from
// seccomp_data alone — the syscall number plus literal argument registers —
// under the given config. The plan is intentionally conservative; a syscall
// is offloaded only when every monitor-side check it would receive reduces
// to facts the filter can evaluate:
//
//   - Only ModeFull qualifies: the fetch-only and hook-only ablation rows
//     exist to measure trap machinery, so their traps must keep happening.
//   - Control-flow enabled disqualifies everything: the CF context judges
//     the whole unwound stack, which a filter cannot see.
//   - Syscall-flow enabled disqualifies everything: the SF context keeps
//     cross-trap transition state, and an in-filter allow would let real
//     execution advance without advancing that state. The kernel's RET_LOG
//     counts are per-nr aggregates with no ordering, so they cannot
//     soundly replay the skipped transitions either — the only sound
//     option is to keep every trap.
//   - Sensitive (Table 1) syscalls always trap. Their argument-integrity
//     rules include pointee walks and unknown-callsite checks that need
//     guest memory, so the offloadable set is exactly the ExtendFS
//     file-system extension (§11.2) — the hot, frequent calls whose trap
//     cost the paper proposes moving in-kernel.
//   - With argument integrity enabled, every traced argument site for the
//     syscall must carry only register-constant specs (no memory-backed
//     values, no pointee derefs), and all sites must agree on one
//     (position, constant) set; that uniform set becomes the in-filter
//     equality chain. Calls from callsites outside the metadata fall
//     through to the monitor, which re-derives the verdict as before.
//
// Not-callable syscalls keep their existing in-filter KILL (or TRACE when
// the call-type context is disabled); offload never widens a kill.
func DeriveOffload(meta *metadata.Metadata, cfg Config) *OffloadPlan {
	plan := &OffloadPlan{Rules: map[uint32]seccomp.ArgRule{}}
	if !cfg.Offload || cfg.Mode != ModeFull || !cfg.ExtendFS {
		return plan
	}
	if cfg.Contexts&(ControlFlow|SyscallFlow) != 0 {
		return plan
	}
	for _, nr := range kernel.FileSystemSyscalls {
		if kernel.IsSensitive(nr) {
			continue
		}
		ct, used := meta.CallTypes[nr]
		if !used || !ct.Callable() {
			continue // keeps the not-callable action; never offload a kill
		}
		matches, ok := constMatches(meta, cfg, nr)
		if !ok {
			continue
		}
		plan.Rules[nr] = seccomp.ArgRule{
			Matches: matches,
			Match:   seccomp.RetLog,
			Else:    seccomp.RetTrace,
		}
	}
	return plan
}

// constMatches collects the uniform constant-argument equalities for nr
// across every traced syscall argument site, or reports the syscall
// unoffloadable (any memory-backed or pointee spec, or disagreeing sites).
// With argument integrity disabled the monitor never checks arguments, so
// the filter must not either: the match list is empty.
func constMatches(meta *metadata.Metadata, cfg Config, nr uint32) ([]seccomp.ArgMatch, bool) {
	if cfg.Contexts&ArgIntegrity == 0 {
		return nil, true
	}
	// Iterate sites in address order so derivation is deterministic.
	addrs := make([]uint64, 0, len(meta.ArgSites))
	for addr := range meta.ArgSites {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	var ref []seccomp.ArgMatch
	seen := false
	for _, addr := range addrs {
		site := meta.ArgSites[addr]
		if !site.IsSyscall || site.SyscallNr != nr {
			continue
		}
		var cur []seccomp.ArgMatch
		for _, spec := range site.Args {
			if spec.Kind != metadata.ArgConst || spec.Deref {
				return nil, false
			}
			if spec.Pos < 1 || spec.Pos > 6 {
				return nil, false
			}
			// metadata positions are 1-based; seccomp_data.args is 0-based.
			cur = append(cur, seccomp.ArgMatch{Pos: spec.Pos - 1, Val: uint64(spec.Const)})
		}
		slices.SortStableFunc(cur, func(a, b seccomp.ArgMatch) int {
			switch {
			case a.Pos != b.Pos:
				return a.Pos - b.Pos
			case a.Val < b.Val:
				return -1
			case a.Val > b.Val:
				return 1
			}
			return 0
		})
		if !seen {
			ref = cur
			seen = true
			continue
		}
		if !slices.Equal(ref, cur) {
			return nil, false // sites disagree: the verdict is callsite-dependent
		}
	}
	if len(ref) > 6 {
		return nil, false
	}
	return ref, true
}
