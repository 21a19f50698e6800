package fleet

import (
	"fmt"
	"sort"
	"strings"

	"bastion/internal/core/monitor"
	"bastion/internal/fleet/shard"
	"bastion/internal/obs"
)

// Report aggregates one fleet run: the configuration, the seeded dispatch
// schedule, every tenant's result, and the run's compilation counts. All
// derived statistics are pure functions of the tenant results, so a report
// is byte-identical across reruns with the same configuration and seed.
type Report struct {
	Cfg      Config
	Schedule []int
	Results  []TenantResult

	// Shards is the control plane's static plan — placement ring
	// assignment and admission grants per shard; an unsharded fleet is
	// one shard. It is computed before any tenant runs, so it is part of
	// the report's deterministic surface.
	Shards []*shard.Shard

	// Compiles / FilterCompiles count program and seccomp-filter
	// compilations across the whole run (shared cache plus any per-tenant
	// private compilations) — the setup-cost axis of the sharing ablation.
	Compiles       int
	FilterCompiles int
}

// TotalUnits sums completed units across tenants.
func (r *Report) TotalUnits() int {
	n := 0
	for i := range r.Results {
		n += r.Results[i].Units
	}
	return n
}

// Restarts, Kills, Faults, and Dead roll up the fleet's failure handling.
func (r *Report) Restarts() int { return r.sum(func(t *TenantResult) int { return t.Restarts }) }

// Kills sums security terminations across tenants.
func (r *Report) Kills() int { return r.sum(func(t *TenantResult) int { return t.Kills }) }

// Faults sums non-security failures across tenants.
func (r *Report) Faults() int { return r.sum(func(t *TenantResult) int { return t.Faults }) }

// Dead counts tenants that exhausted their restart budget or were
// quarantined after a completed attack.
func (r *Report) Dead() int {
	n := 0
	for i := range r.Results {
		if r.Results[i].Dead {
			n++
		}
	}
	return n
}

func (r *Report) sum(f func(*TenantResult) int) int {
	n := 0
	for i := range r.Results {
		n += f(&r.Results[i])
	}
	return n
}

// WallCycles is the fleet's simulated makespan: tenants run in parallel on
// independent clocks, so the fleet is done when its slowest tenant is.
func (r *Report) WallCycles() uint64 {
	var max uint64
	for i := range r.Results {
		if e := r.Results[i].ElapsedCycles(); e > max {
			max = e
		}
	}
	return max
}

// Throughput is fleet-wide completed units per simulated second.
func (r *Report) Throughput() float64 {
	wall := r.WallCycles()
	if wall == 0 {
		return 0
	}
	return float64(r.TotalUnits()) / (float64(wall) / SimHz)
}

// MonitorCyclesPerUnit is the fleet-wide monitor cost per completed unit.
func (r *Report) MonitorCyclesPerUnit() float64 {
	units := r.TotalUnits()
	if units == 0 {
		return 0
	}
	var mon uint64
	for i := range r.Results {
		mon += r.Results[i].MonitorCycles
	}
	return float64(mon) / float64(units)
}

// OffloadAvoided sums traps answered in-filter by the verdict offload
// across tenants.
func (r *Report) OffloadAvoided() uint64 {
	var n uint64
	for i := range r.Results {
		n += r.Results[i].OffloadAvoided
	}
	return n
}

// AdmitRejects sums full-queue admission rejections across tenants — the
// control plane's backpressure signal (0 with admission off).
func (r *Report) AdmitRejects() int {
	return r.sum(func(t *TenantResult) int { return t.AdmitRejects })
}

// MaxAdmitWait is the fleet's worst admission latency in cycles, taken
// over the shard plans (0 with admission off).
func (r *Report) MaxAdmitWait() uint64 {
	var m uint64
	for _, s := range r.Shards {
		if w := s.MaxWait(); w > m {
			m = w
		}
	}
	return m
}

// Reloads counts applied policy hot reloads across tenants.
func (r *Report) Reloads() uint64 {
	var n uint64
	for i := range r.Results {
		n += r.Results[i].Reloads
	}
	return n
}

// MeanReloadCycles is the mean swap cost per applied hot reload.
func (r *Report) MeanReloadCycles() float64 {
	n := r.Reloads()
	if n == 0 {
		return 0
	}
	var cyc uint64
	for i := range r.Results {
		cyc += r.Results[i].ReloadCycles
	}
	return float64(cyc) / float64(n)
}

// ShardMakespan is the latest finish time among the shard's members.
func (r *Report) ShardMakespan(s *shard.Shard) uint64 {
	var m uint64
	for _, idx := range s.Members {
		if e := r.Results[idx].ElapsedCycles(); e > m {
			m = e
		}
	}
	return m
}

// ShardMetrics merges each shard's members' registries (member order)
// into one registry per shard; MergedMetrics folds these shard registries
// in shard order, so a fleet's metrics roll up shard-by-shard.
func (r *Report) ShardMetrics() []*obs.Registry {
	out := make([]*obs.Registry, len(r.Shards))
	for i, s := range r.Shards {
		reg := obs.NewRegistry()
		for _, idx := range s.Members {
			if m := r.Results[idx].Metrics; m != nil {
				mustMerge(reg, m)
			}
		}
		out[i] = reg
	}
	return out
}

// mustMerge folds src into dst, panicking on mismatched histogram bounds.
// Every fleet registry is built by the same monitor code from the same
// fixed bucket variables, so a bounds mismatch here is a programming bug
// that must surface immediately, not a recoverable condition.
func mustMerge(dst, src *obs.Registry) {
	if err := dst.Merge(src); err != nil {
		panic("fleet: " + err.Error())
	}
}

// ViolationsByContext rolls up recorded violations by context: one count
// per violation across all tenants.
func (r *Report) ViolationsByContext() map[monitor.Context]int {
	out := map[monitor.Context]int{}
	for i := range r.Results {
		for ctx, n := range r.Results[i].ContextViolations {
			out[ctx] += n
		}
	}
	return out
}

// SetupCyclesPerTenant is the mean monitor-attach (setup) cost per tenant
// — the latency axis of the sharing ablation (compilation cost shows up in
// Compiles, not cycles, since compilation happens host-side).
func (r *Report) SetupCyclesPerTenant() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	var setup uint64
	for i := range r.Results {
		setup += r.Results[i].SetupCycles
	}
	return float64(setup) / float64(len(r.Results))
}

// CompilesPerTenant is the run's program compilations amortized over the
// fleet: with sharing on this falls toward apps/tenants; with sharing off
// it stays ≥ 1.
func (r *Report) CompilesPerTenant() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	return float64(r.Compiles) / float64(len(r.Results))
}

// MergedMetrics folds every tenant's metrics registry into one fleet-wide
// registry, through the per-shard registries. Tenants without a registry
// (Trace off) contribute nothing; the result is deterministic because
// Merge and the renderers sort by name.
func (r *Report) MergedMetrics() *obs.Registry {
	merged := obs.NewRegistry()
	for _, reg := range r.ShardMetrics() {
		mustMerge(merged, reg)
	}
	return merged
}

// TotalEvents counts trace events across tenants (Trace on).
func (r *Report) TotalEvents() int {
	n := 0
	for i := range r.Results {
		n += len(r.Results[i].Events)
	}
	return n
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Markdown renders the aggregated report deterministically: no wall-clock
// host timings, stable ordering throughout.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Fleet report: %d tenants × %d units (%s)\n\n",
		r.Cfg.Tenants, r.Cfg.Units, strings.Join(r.Cfg.Apps, ","))
	fmt.Fprintf(&b, "Mode %s, %s, shared artifacts %s, seed %d",
		r.Cfg.Mode, r.Cfg.policy(), yn(r.Cfg.ShareArtifacts), r.Cfg.Seed)
	if r.Cfg.ReloadAt > 0 {
		fmt.Fprintf(&b, "; hot reload at unit %d to %s", r.Cfg.ReloadAt, r.Cfg.ReloadSpec.policy())
	}
	b.WriteString(".\n")
	fmt.Fprintf(&b, "Dispatch schedule: %v\n\n", r.Schedule)

	b.WriteString("| tenant | app | units | restarts | kills | faults | dead | mon cyc/unit | violations | backoff cyc |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|\n")
	for i := range r.Results {
		t := &r.Results[i]
		state := ""
		if t.Dead {
			state = "dead"
			if t.Compromised {
				state = "compromised"
			}
		}
		fmt.Fprintf(&b, "| %d | %s | %d | %d | %d | %d | %s | %.0f | %d | %d |\n",
			t.Index, t.App, t.Units, t.Restarts, t.Kills, t.Faults, state,
			t.PerUnitMonitor(), len(t.Violations), t.BackoffCycles)
	}

	fmt.Fprintf(&b, "\nFleet: %d units, %.0f units/s, %.0f monitor cyc/unit.\n",
		r.TotalUnits(), r.Throughput(), r.MonitorCyclesPerUnit())
	if r.Cfg.Offload {
		fmt.Fprintf(&b, "Verdict offload: %d traps avoided in-filter.\n", r.OffloadAvoided())
	}
	fmt.Fprintf(&b, "Failures: %d restarts, %d kills, %d faults, %d dead tenants.\n",
		r.Restarts(), r.Kills(), r.Faults(), r.Dead())
	fmt.Fprintf(&b, "Setup: %d program compiles (%.2f/tenant), %d filter compiles, %.0f attach cyc/tenant.\n",
		r.Compiles, r.CompilesPerTenant(), r.FilterCompiles, r.SetupCyclesPerTenant())

	fmt.Fprintf(&b, "Admission: %d rejections, max wait %d cyc, makespan %d cyc.\n",
		r.AdmitRejects(), r.MaxAdmitWait(), r.WallCycles())
	if r.Cfg.ReloadAt > 0 {
		fmt.Fprintf(&b, "Hot reload: staged at unit %d, %d swaps applied, mean %.0f cyc/swap.\n",
			r.Cfg.ReloadAt, r.Reloads(), r.MeanReloadCycles())
	}

	if v := r.ViolationsByContext(); len(v) > 0 {
		ctxs := make([]monitor.Context, 0, len(v))
		for ctx := range v {
			ctxs = append(ctxs, ctx)
		}
		sort.Slice(ctxs, func(i, j int) bool { return ctxs[i] < ctxs[j] })
		parts := make([]string, 0, len(ctxs))
		for _, ctx := range ctxs {
			parts = append(parts, fmt.Sprintf("%s=%d", ctx, v[ctx]))
		}
		fmt.Fprintf(&b, "Violations by context: %s.\n", strings.Join(parts, ", "))
	}

	b.WriteString("\n### Shards\n\n")
	b.WriteString("| shard | tenants | rejects | max admit wait | makespan cyc |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, s := range r.Shards {
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %d |\n",
			s.ID, len(s.Members), s.Rejects(), s.MaxWait(), r.ShardMakespan(s))
	}

	if r.Cfg.SLO != nil {
		renderSLO(&b, r.EvaluateSLO())
	}

	attacked := false
	for i := range r.Results {
		if r.Results[i].Attack != nil {
			if !attacked {
				b.WriteString("\n### Injected attacks\n\n")
				attacked = true
			}
			t := &r.Results[i]
			a := t.Attack
			verdict := "blocked"
			if a.Completed {
				verdict = "COMPLETED (tenant quarantined)"
			} else if a.Killed {
				verdict = fmt.Sprintf("blocked, guest killed by %s", a.KilledBy)
			}
			fmt.Fprintf(&b, "- tenant %d (%s): %s — %s (%s)\n", t.Index, t.App, a.ID, verdict, a.Reason)
		}
	}

	if r.Cfg.Trace {
		fmt.Fprintf(&b, "\n### Merged metrics (%d trace events)\n\n```\n", r.TotalEvents())
		b.WriteString(r.MergedMetrics().Render())
		b.WriteString("```\n")
	}
	return b.String()
}

// String returns a one-line fleet summary.
func (r *Report) String() string {
	s := fmt.Sprintf("fleet %d×%d [%s] mode=%s: %d units, %.0f units/s, %d restarts, %d kills, %d dead, %d compiles, %d shards (%d rejections)",
		r.Cfg.Tenants, r.Cfg.Units, strings.Join(r.Cfg.Apps, ","), r.Cfg.Mode,
		r.TotalUnits(), r.Throughput(), r.Restarts(), r.Kills(), r.Dead(), r.Compiles,
		len(r.Shards), r.AdmitRejects())
	if r.Cfg.ReloadAt > 0 {
		s += fmt.Sprintf(", %d reloads", r.Reloads())
	}
	return s
}
