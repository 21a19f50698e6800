package bench

import (
	"fmt"
	"strings"

	"bastion/internal/attacks"
	"bastion/internal/core"
	"bastion/internal/core/analysis"
	"bastion/internal/core/binscan"
	"bastion/internal/core/metadata"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/obs"
	"bastion/internal/obs/perf"
	"bastion/internal/seccomp"
	"bastion/internal/workload"
)

// DefaultUnits is the per-measurement work-unit count used by the
// regeneration commands; benchmarks may scale it down.
const DefaultUnits = 120

// perApp fills t with one row per evaluation application.
func perApp(t *Table, row func(app string) (Row, error)) (*Table, error) {
	for _, app := range workload.Apps {
		r, err := row(app)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app, err)
		}
		t.Rows = append(t.Rows, r)
	}
	return t, nil
}

// onOff is the on/off ablation runner: it measures spec's vanilla
// baseline, spec as given (off), and spec with flip applied (on).
func onOff(spec RunSpec, flip func(*RunSpec)) (base, off, on *RunResult, err error) {
	if base, err = Run(RunSpec{App: spec.App, Mitigation: MitVanilla, Units: spec.Units}); err != nil {
		return nil, nil, nil, err
	}
	if off, err = Run(spec); err != nil {
		return nil, nil, nil, err
	}
	flip(&spec)
	if on, err = Run(spec); err != nil {
		return nil, nil, nil, err
	}
	return base, off, on, nil
}

// violations is a run's benign-workload violation count, gated exactly.
func violations(name string, r *RunResult) Value {
	return count(name, len(r.Protected.Monitor.Violations), perf.Exact)
}

// figure3 measures the overhead of every mitigation stack for every
// application.
func figure3(units int) (*Table, error) {
	t := &Table{Heading: "Figure 3 — overhead per mitigation stack (%)", Header: []string{"app"}}
	for _, mit := range Mitigations[1:] {
		t.Header = append(t.Header, mit.Name)
	}
	return perApp(t, func(app string) (Row, error) {
		base, err := Run(RunSpec{App: app, Mitigation: MitVanilla, Units: units})
		if err != nil {
			return Row{}, err
		}
		row := Row{Cells: []Cell{text(app)}}
		for _, mit := range Mitigations[1:] {
			r, err := Run(RunSpec{App: app, Mitigation: mit, Units: units})
			if err != nil {
				return Row{}, fmt.Errorf("%s: %w", mit, err)
			}
			row.Cells = append(row.Cells, cell("%.2f",
				num("fig3."+app+"."+mitSlug(mit)+".overhead_pct", Overhead(base, r), perf.LowerIsBetter)))
		}
		return row, nil
	})
}

// rawValue converts a run into the paper's reporting unit for the app.
func rawValue(app string, r *RunResult) float64 {
	rate := Throughput(r) // units per second
	switch app {
	case "nginx":
		return rate * workload.PageSize / 1e6 // MB/s
	case "sqlite":
		return rate * 60 // new-order transactions per minute
	case "vsftpd":
		// Seconds to download 100 MB at the measured transfer rate.
		const paperFile = 100e6
		perTransfer := float64(workload.FTPFileSize)
		if rate == 0 {
			return 0
		}
		return paperFile / (rate * perTransfer)
	}
	return rate
}

// rawDir is the gating direction of an app's raw number: vsftpd's is a
// completion time, the others are rates.
func rawDir(app string) perf.Direction {
	if app == "vsftpd" {
		return perf.LowerIsBetter
	}
	return perf.HigherIsBetter
}

// table3 measures the raw numbers behind Figure 3.
func table3(units int) (*Table, error) {
	unitOf := map[string]string{"nginx": "MB/s", "sqlite": "NOTPM", "vsftpd": "sec"}
	t := &Table{Heading: "Table 3 — raw numbers", Header: []string{"app", "unit"}}
	for _, mit := range Mitigations {
		t.Header = append(t.Header, mit.Name)
	}
	return perApp(t, func(app string) (Row, error) {
		row := Row{Cells: []Cell{text(app), text(unitOf[app])}}
		for _, mit := range Mitigations {
			r, err := Run(RunSpec{App: app, Mitigation: mit, Units: units})
			if err != nil {
				return Row{}, fmt.Errorf("%s: %w", mit, err)
			}
			row.Cells = append(row.Cells, cell("%.2f",
				num("table3."+app+"."+mitSlug(mit)+".raw", rawValue(app, r), rawDir(app))))
		}
		return row, nil
	})
}

// table4 counts sensitive syscall invocations (init + steady state) under
// full protection.
func table4(units int) (*Table, error) {
	procs := make([]*kernel.Process, len(workload.Apps))
	for i, app := range workload.Apps {
		r, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: units})
		if err != nil {
			return nil, err
		}
		procs[i] = r.Protected.Proc
	}
	t := &Table{Heading: "Table 4 — sensitive syscall usage", Header: append([]string{"syscall"}, workload.Apps...)}
	for _, nr := range kernel.SensitiveSyscalls {
		name := kernel.Name(nr)
		row := Row{Cells: []Cell{text(name)}}
		for i, app := range workload.Apps {
			row.Cells = append(row.Cells, cell("%d",
				count("table4."+app+"."+name+".calls", procs[i].SyscallCounts.Of(nr), perf.Exact)))
		}
		t.Rows = append(t.Rows, row)
	}
	hooks := Row{Cells: []Cell{text("**total monitor hook**")}}
	for i, app := range workload.Apps {
		hooks.Cells = append(hooks.Cells, cell("%d", count("table4."+app+".hooks", procs[i].TrapCount, perf.Exact)))
	}
	t.Rows = append(t.Rows, hooks)
	return t, nil
}

// table5 reports the compiler's instrumentation statistics. They are
// static, so it ignores the unit count.
func table5(int) (*Table, error) {
	stats := make([]analysis.Stats, len(workload.Apps))
	for i, app := range workload.Apps {
		r, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: 1})
		if err != nil {
			return nil, err
		}
		stats[i] = r.Stats.Stats
	}
	lines := []struct {
		label, name string
		get         func(analysis.Stats) int
	}{
		{"application callsites", "callsites_total", func(s analysis.Stats) int { return s.TotalCallsites }},
		{"direct callsites", "callsites_direct", func(s analysis.Stats) int { return s.DirectCallsites }},
		{"indirect callsites", "callsites_indirect", func(s analysis.Stats) int { return s.IndirectCallsites }},
		{"sensitive callsites", "callsites_sensitive", func(s analysis.Stats) int { return s.SensitiveCallsites }},
		{"sensitive called indirectly", "sensitive_indirect", func(s analysis.Stats) int { return s.SensitiveIndirect }},
		{"ctx_write_mem", "ctx_write_mem", func(s analysis.Stats) int { return s.CtxWriteMem }},
		{"ctx_bind_mem", "ctx_bind_mem", func(s analysis.Stats) int { return s.CtxBindMem }},
		{"ctx_bind_const", "ctx_bind_const", func(s analysis.Stats) int { return s.CtxBindConst }},
		{"total instrumentation", "instrumentation_total", analysis.Stats.Total},
	}
	t := &Table{Heading: "Table 5 — instrumentation statistics", Header: append([]string{"statistic"}, workload.Apps...)}
	for _, l := range lines {
		row := Row{Cells: []Cell{text(l.label)}}
		for i, app := range workload.Apps {
			row.Cells = append(row.Cells, cell("%d", count("table5."+app+"."+l.name, l.get(stats[i]), perf.Exact)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// table6 evaluates the full attack catalog. Attacks run their own guests,
// so it ignores the unit count.
func table6(int) (*Table, error) {
	t := &Table{
		Heading: "Table 6 — security case studies",
		Header:  []string{"attack", "category", "CT", "CF", "AI", "SF", "full"},
	}
	for _, s := range attacks.Catalog() {
		v, err := attacks.Evaluate(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.ID, err)
		}
		blocked := func(ctx string, b bool) Cell {
			return cell("%s", bit("table6."+s.ID+"."+ctx, b, "×", "✓"))
		}
		t.Rows = append(t.Rows, Row{Cells: []Cell{
			text(s.ID), text(s.Category),
			blocked("ct", v.CT), blocked("cf", v.CF), blocked("ai", v.AI), blocked("sf", v.SF),
			blocked("full", v.FullBlocked),
		}})
	}
	return t, nil
}

// table7 measures the §11.2 extension: protecting file-system syscalls at
// the three monitor checkpoints.
func table7(units int) (*Table, error) {
	base := map[string]*RunResult{}
	for _, app := range workload.Apps {
		r, err := Run(RunSpec{App: app, Mitigation: MitVanilla, Units: units})
		if err != nil {
			return nil, err
		}
		base[app] = r
	}
	configs := []struct {
		label, slug string
		mode        monitor.Mode
	}{
		{"seccomp hook only", "hook_only", monitor.ModeHookOnly},
		{"fetch process state", "fetch", monitor.ModeFetchOnly},
		{"full context checking", "full", monitor.ModeFull},
	}
	t := &Table{Heading: "Table 7 — file-system syscall extension", Header: append([]string{"configuration"}, workload.Apps...)}
	for _, cfg := range configs {
		row := Row{Cells: []Cell{text(cfg.label)}}
		for _, app := range workload.Apps {
			r, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: units, ExtendFS: true, Mode: cfg.mode})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", app, cfg.label, err)
			}
			m := "table7." + cfg.slug + "." + app + "."
			row.Cells = append(row.Cells, cell("%.2f (%.2f%%)",
				num(m+"raw", rawValue(app, r), rawDir(app)),
				num(m+"overhead_pct", Overhead(base[app], r), perf.LowerIsBetter)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// tableAvgSteps evaluates prog once per syscall number in the kernel
// table and returns the mean executed instruction count.
func tableAvgSteps(prog []seccomp.Insn) (float64, error) {
	var total, n int
	for nr := range kernel.Names {
		_, steps, err := seccomp.Run(prog, &seccomp.Data{Nr: nr, Arch: seccomp.AuditArchX86_64})
		if err != nil {
			return 0, err
		}
		total += steps
		n++
	}
	return float64(total) / float64(n), nil
}

// filterAblation compares the linear comparison-chain seccomp filter with
// the balanced binary-search compilation, hook-only (Table 7 row 1: pure
// filter cost) with the file-system extension, where the rule set is
// largest. insns/eval averages uniformly over the kernel syscall table,
// the O(n)-vs-O(log n) hook cost; insns/call is workload-weighted.
func filterAblation(units int) (*Table, error) {
	t := &Table{
		Heading: "Seccomp filter ablation — linear chain vs binary search (hook-only, fs extension)",
		Note:    "insns/eval averages one filter evaluation over the whole kernel syscall table; insns/call is workload-weighted (Linux numbers hot syscalls lowest, favoring the sorted chain).",
		Header:  []string{"app", "linear insns/eval", "tree insns/eval", "linear insns/call", "tree insns/call", "linear overhead", "tree overhead"},
	}
	perCall := func(r *RunResult) float64 {
		var calls uint64
		for _, n := range r.Protected.Proc.SyscallCounts {
			calls += n
		}
		if calls == 0 {
			return 0
		}
		return float64(r.Protected.Proc.FilterSteps) / float64(calls)
	}
	return perApp(t, func(app string) (Row, error) {
		base, lin, tree, err := onOff(
			RunSpec{App: app, Mitigation: MitFull, Units: units, ExtendFS: true, Mode: monitor.ModeHookOnly},
			func(s *RunSpec) { s.Mitigation.Monitor.TreeFilter = true })
		if err != nil {
			return Row{}, err
		}
		linEval, err := tableAvgSteps(lin.Protected.Proc.SeccompFilter())
		if err != nil {
			return Row{}, err
		}
		treeEval, err := tableAvgSteps(tree.Protected.Proc.SeccompFilter())
		if err != nil {
			return Row{}, err
		}
		m := "filter." + app + "."
		return Row{Cells: []Cell{
			text(app),
			cell("%.2f", num(m+"linear_insns_eval", linEval, perf.LowerIsBetter)),
			cell("%.2f", num(m+"tree_insns_eval", treeEval, perf.LowerIsBetter)),
			cell("%.2f", num(m+"linear_insns_call", perCall(lin), perf.LowerIsBetter)),
			cell("%.2f", num(m+"tree_insns_call", perCall(tree), perf.LowerIsBetter)),
			cell("%.2f%%", num(m+"linear_overhead_pct", Overhead(base, lin), perf.LowerIsBetter)),
			cell("%.2f%%", num(m+"tree_overhead_pct", Overhead(base, tree), perf.LowerIsBetter)),
		}}, nil
	})
}

// sfAblation compares full protection with the syscall-flow context
// disabled (ct,cf,ai — the pre-SF configuration) and enabled. SF adds one
// transition-table lookup per full-mode trap; the benign workloads must
// stay violation-free either way (the ordering attacks it exists for are
// proven by the attack matrix, not here).
func sfAblation(units int) (*Table, error) {
	t := &Table{
		Heading: "Syscall-flow ablation — SF context off vs on",
		Note:    "Full protection with the syscall-flow context disabled (ct,cf,ai — the pre-SF configuration) and enabled. SF charges one transition-table lookup per full-mode trap; both runs must stay violation-free, since the flow graph is derived from the program's own CFG.",
		Header:  []string{"app", "off mon cyc/unit", "on mon cyc/unit", "flow checks", "traps", "off overhead", "on overhead"},
	}
	return perApp(t, func(app string) (Row, error) {
		noSF := MitFull
		noSF.Monitor.Contexts &^= monitor.SyscallFlow
		base, off, on, err := onOff(RunSpec{App: app, Mitigation: noSF, Units: units},
			func(s *RunSpec) { s.Mitigation = MitFull })
		if err != nil {
			return Row{}, err
		}
		if got := off.Protected.Monitor.FlowChecks; got != 0 {
			return Row{}, fmt.Errorf("SF-disabled run performed %d flow checks", got)
		}
		m := "sf." + app + "."
		return Row{
			Cells: []Cell{
				text(app),
				cell("%.0f", num(m+"off_mon_cyc_unit", off.Workload.PerUnitMonitor(), perf.LowerIsBetter)),
				cell("%.0f", num(m+"on_mon_cyc_unit", on.Workload.PerUnitMonitor(), perf.LowerIsBetter)),
				cell("%d", count(m+"flow_checks", on.Protected.Monitor.FlowChecks, perf.Exact)),
				cell("%d", count(m+"traps", on.Protected.Proc.TrapCount, perf.Exact)),
				cell("%.2f%%", num(m+"off_overhead_pct", Overhead(base, off), perf.LowerIsBetter)),
				cell("%.2f%%", num(m+"on_overhead_pct", Overhead(base, on), perf.LowerIsBetter)),
			},
			Hidden: []Value{violations(m+"off_violations", off), violations(m+"on_violations", on)},
		}, nil
	})
}

// offloadAblation compares full-mode protection with the verdict offload
// off and on. The configuration is call-type + argument-integrity with the
// file-system extension — the shape where every extension syscall's
// verdict is decidable from seccomp_data, so the offload's trap savings
// are maximal. (Control flow disqualifies offload by construction: the CF
// context judges the whole unwound stack.) Avoided counts in-filter
// RET_LOG allows: traps the pure-monitor filter would have taken.
func offloadAblation(units int) (*Table, error) {
	t := &Table{
		Heading: "Verdict offload ablation — CT + const-arg checks answered in-filter",
		Note:    "Full mode with call-type and argument-integrity contexts (no control-flow) and the fs extension, with the verdict offload off vs on. Offloaded syscalls are decided inside the seccomp program from the syscall number and literal argument registers and never trap to the monitor; everything else falls through to RET_TRACE and the residual monitor unchanged.",
		Header:  []string{"app", "off traps", "on traps", "avoided", "offloaded nrs", "off mon cyc/unit", "on mon cyc/unit", "off overhead", "on overhead"},
	}
	return perApp(t, func(app string) (Row, error) {
		ctAI := MitFull
		ctAI.Monitor.Contexts = monitor.CallType | monitor.ArgIntegrity
		base, off, on, err := onOff(RunSpec{App: app, Mitigation: ctAI, Units: units, ExtendFS: true},
			func(s *RunSpec) { s.Mitigation.Monitor.Offload = true })
		if err != nil {
			return Row{}, err
		}
		mon := on.Protected.Monitor
		m := "offload." + app + "."
		return Row{
			Cells: []Cell{
				text(app),
				cell("%d", count(m+"off_traps", off.Workload.Traps, perf.Exact)),
				cell("%d", count(m+"on_traps", on.Workload.Traps, perf.Exact)),
				cell("%d", count(m+"avoided", mon.OffloadAvoided(), perf.Exact)),
				cell("%d", count(m+"offloaded_nrs", len(mon.Generation().Offload.Rules), perf.Exact)),
				cell("%.0f", num(m+"off_mon_cyc_unit", off.Workload.PerUnitMonitor(), perf.LowerIsBetter)),
				cell("%.0f", num(m+"on_mon_cyc_unit", on.Workload.PerUnitMonitor(), perf.LowerIsBetter)),
				cell("%.2f%%", num(m+"off_overhead_pct", Overhead(base, off), perf.LowerIsBetter)),
				cell("%.2f%%", num(m+"on_overhead_pct", Overhead(base, on), perf.LowerIsBetter)),
			},
			Hidden: []Value{violations(m+"off_violations", off), violations(m+"on_violations", on)},
		}, nil
	})
}

// refineAblation compares enforcement of the coarse address-taken
// AllowedIndirect sets (launched on the metadata.CoarseIndirect
// projection) against the points-to–refined sets, alongside the static
// policy-size deltas. The CF walk terminates at the indirect-callsite
// policy lookup, so any set-size effect lands in monitor cycles.
func refineAblation(units int) (*Table, error) {
	t := &Table{
		Heading: "Points-to refinement ablation — coarse vs refined indirect-call policies",
		Note:    "Static policy sizes (indirect-call edges and per-syscall allowed callsite pairs) before and after the points-to refinement, and the runtime cost of enforcing each under full protection with the fs extension. Verdicts are asserted identical by the attack replay suite; only policy size and lookup cost may differ.",
		Header:  []string{"app", "edges coarse→refined", "pairs coarse→refined", "exact sites", "escaped sites", "coarse mon cyc/unit", "refined mon cyc/unit", "coarse overhead", "refined overhead"},
	}
	return perApp(t, func(app string) (Row, error) {
		coarseFull := MitFull
		coarseFull.Coarse = true
		base, coarse, refined, err := onOff(RunSpec{App: app, Mitigation: coarseFull, Units: units, ExtendFS: true},
			func(s *RunSpec) { s.Mitigation = MitFull })
		if err != nil {
			return Row{}, err
		}
		st := refined.Stats.Stats
		m := "refine." + app + "."
		return Row{
			Cells: []Cell{
				text(app),
				cell("%d→%d", count(m+"edges_coarse", st.IndirectEdgesCoarse, perf.Exact),
					count(m+"edges_refined", st.IndirectEdgesRefined, perf.Exact)),
				cell("%d→%d", count(m+"pairs_coarse", st.AllowedPairsCoarse, perf.Exact),
					count(m+"pairs_refined", st.AllowedPairsRefined, perf.Exact)),
				cell("%d", count(m+"exact_sites", st.ExactIndirectSites, perf.Exact)),
				cell("%d", count(m+"escaped_sites", st.EscapedIndirectSites, perf.Exact)),
				cell("%.0f", num(m+"coarse_mon_cyc_unit", coarse.Workload.PerUnitMonitor(), perf.LowerIsBetter)),
				cell("%.0f", num(m+"refined_mon_cyc_unit", refined.Workload.PerUnitMonitor(), perf.LowerIsBetter)),
				cell("%.2f%%", num(m+"coarse_overhead_pct", Overhead(base, coarse), perf.LowerIsBetter)),
				cell("%.2f%%", num(m+"refined_overhead_pct", Overhead(base, refined), perf.LowerIsBetter)),
			},
			Hidden: []Value{violations(m+"coarse_violations", coarse), violations(m+"refined_violations", refined)},
		}, nil
	})
}

// obsAblation reruns full protection with the fs extension with a
// buffered decision-trace sink and a 32-deep flight recorder attached —
// the observability plane's zero-cost claim. Telemetry reads the simulated
// clock but never advances it, so the two runs' workload measurements must
// be bit-identical, not merely close; the trace's cost is its bytes.
func obsAblation(units int) (*Table, error) {
	t := &Table{
		Heading: "Observability ablation — trace sink and flight recorder on vs off",
		Note:    "Full protection with the fs extension, rerun with a buffered decision-trace sink and a 32-deep flight recorder attached. Telemetry reads the simulated clock but never advances it, so the cycle accounts must be bit-identical — the trace's cost is its bytes, off the simulated timeline.",
		Header:  []string{"app", "off mon cyc/unit", "on mon cyc/unit", "traps", "events", "trace bytes", "identical"},
	}
	return perApp(t, func(app string) (Row, error) {
		sink := &obs.BufferSink{}
		_, off, on, err := onOff(
			RunSpec{App: app, Mitigation: MitFull, Units: units, ExtendFS: true},
			func(s *RunSpec) { s.Mitigation.Monitor.Sink, s.Mitigation.Monitor.FlightN = sink, 32 })
		if err != nil {
			return Row{}, err
		}
		var trace strings.Builder
		if err := obs.WriteJSONL(&trace, sink.Events); err != nil {
			return Row{}, err
		}
		m := "obs." + app + "."
		return Row{
			Cells: []Cell{
				text(app),
				cell("%.0f", num(m+"off_mon_cyc_unit", off.Workload.PerUnitMonitor(), perf.LowerIsBetter)),
				cell("%.0f", num(m+"on_mon_cyc_unit", on.Workload.PerUnitMonitor(), perf.LowerIsBetter)),
				cell("%d", count(m+"traps", on.Protected.Monitor.Hooks, perf.Exact)),
				cell("%d", count(m+"events", len(sink.Events), perf.Exact)),
				cell("%d", count(m+"trace_bytes", trace.Len(), perf.LowerIsBetter)),
				cell("%s", bit(m+"identical", off.Workload == on.Workload, "no", "yes")),
			},
			Hidden: []Value{count(m+"flight_events", on.Protected.Monitor.Recorder.Len(), perf.Exact)},
		}, nil
	})
}

// extras reports the §9.2 prose numbers (monitor init latency and syscall
// stack depths), the §9.2 accept fast-path ablation, and how much of the
// Table 7 overhead the §11.2 in-kernel monitor recovers.
func extras(units int) (*Table, error) {
	t := &Table{Heading: "§9.2 / §11.2 extras"}
	for _, app := range workload.Apps {
		r, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: units})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app, err)
		}
		mach, m := r.Protected.Machine, "init."+app+"."
		t.Rows = append(t.Rows, Row{Cells: []Cell{cell("%s: monitor init %.2f ms; syscall depth avg %.1f (min %d, max %d)",
			show(app),
			num(m+"init_ms", float64(r.Protected.Monitor.InitCycles)/SimHz*1000, perf.LowerIsBetter),
			num(m+"avg_depth", mach.AvgSyscallDepth(), perf.Info),
			count(m+"min_depth", mach.MinDepth, perf.Exact),
			count(m+"max_depth", mach.MaxDepth, perf.Exact))}})
	}
	base, fast, walk, err := onOff(
		RunSpec{App: "nginx", Mitigation: MitFull, Units: units},
		func(s *RunSpec) { s.Mitigation.Monitor.AcceptFastPath = false })
	if err != nil {
		return nil, fmt.Errorf("accept: %w", err)
	}
	t.Rows = append(t.Rows, Row{Cells: []Cell{cell("accept4 fast path (nginx): %.2f%% vs %.2f%% with full-walk verification",
		num("accept.fast_path.overhead_pct", Overhead(base, fast), perf.LowerIsBetter),
		num("accept.full_walk.overhead_pct", Overhead(base, walk), perf.LowerIsBetter))}})
	for _, app := range workload.Apps {
		base, ptrace, inK, err := onOff(
			RunSpec{App: app, Mitigation: MitFull, Units: units, ExtendFS: true},
			func(s *RunSpec) { s.Mitigation.Monitor.InKernel = true })
		if err != nil {
			return nil, fmt.Errorf("in-kernel %s: %w", app, err)
		}
		m := "inkernel." + app + "."
		t.Rows = append(t.Rows, Row{Cells: []Cell{cell("in-kernel monitor (%s, fs extension): %.2f%% vs %.2f%% under ptrace",
			show(app),
			num(m+"inkernel.overhead_pct", Overhead(base, inK), perf.LowerIsBetter),
			num(m+"ptrace.overhead_pct", Overhead(base, ptrace), perf.LowerIsBetter))}})
	}
	return t, nil
}

// defenseComparison runs representative attacks (one per Table 6
// category plus the CVE family) across every defense configuration. It is
// display-only: Table 6 already gates each verdict.
func defenseComparison(int) (*Table, error) {
	ids := []string{"rop-exec-01", "direct-cscfi", "cve-2013-2028", "ind-newton-cpi", "ind-jujutsu", "ord-setuid-replay"}
	rows, err := attacks.CompareDefenses(ids)
	if err != nil {
		return nil, err
	}
	t := &Table{Heading: "Defense comparison (representative attacks)", Header: []string{"attack"}}
	for _, d := range attacks.Defenses {
		t.Header = append(t.Header, d.Name)
	}
	for _, r := range rows {
		row := Row{Cells: []Cell{text(r.Scenario.ID)}}
		for _, d := range attacks.Defenses {
			mark := "×"
			if r.Blocked[d.Name] {
				mark = "✓"
				if by := r.KilledBy[d.Name]; by != "" {
					mark += " (" + by + ")"
				}
			}
			row.Cells = append(row.Cells, text(mark))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// bsideAblation compares full protection under the compiler-traced policy
// (instrumented binary) against full protection under the policy the
// binary-only extractor (internal/core/binscan) recovers from the
// uninstrumented program: the extraction regime's overhead and policy
// looseness. Extraction stops at the address-taken ∩ type-match frontier,
// so its pair count matches the compiler's pre-refinement count and bounds
// the traced one below. Both runs execute the identical benign workload,
// so both violation counts must be zero.
func bsideAblation(units int) (*Table, error) {
	t := &Table{
		Heading: "B-Side ablation — compiler-traced vs binary-extracted policy",
		Note:    "Full protection with the fs extension under the compiler-traced policy (instrumented binary) and under the policy the binary-only extractor recovers from the raw binary. The raw binary's guest does less work per unit while its monitor checks the same trap stream; extraction stops at the address-taken ∩ type-match frontier, so its policy is never tighter than the traced one. Unbound args are the argument positions the extractor's dataflow abandoned.",
		Header:  []string{"app", "traced overhead", "bside overhead", "traced mon cyc/unit", "bside mon cyc/unit", "pairs traced→bside", "flow edges traced→bside", "const args traced→bside", "unbound args"},
	}
	return perApp(t, func(app string) (Row, error) {
		base, err := Run(RunSpec{App: app, Mitigation: MitVanilla, Units: units})
		if err != nil {
			return Row{}, err
		}
		traced, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: units, ExtendFS: true})
		if err != nil {
			return Row{}, err
		}
		bside, ext, err := runExtracted(app, units)
		if err != nil {
			return Row{}, err
		}
		tracedConsts := 0
		for _, site := range traced.Stats.Meta.ArgSites {
			if !site.IsSyscall {
				continue
			}
			for _, spec := range site.Args {
				if spec.Kind == metadata.ArgConst {
					tracedConsts++
				}
			}
		}
		m := "bside." + app + "."
		return Row{
			Cells: []Cell{
				text(app),
				cell("%.2f%%", num(m+"traced_overhead_pct", Overhead(base, traced), perf.LowerIsBetter)),
				cell("%.2f%%", num(m+"bside_overhead_pct", Overhead(base, bside), perf.LowerIsBetter)),
				cell("%.0f", num(m+"traced_mon_cyc_unit", traced.Workload.PerUnitMonitor(), perf.LowerIsBetter)),
				cell("%.0f", num(m+"bside_mon_cyc_unit", bside.Workload.PerUnitMonitor(), perf.LowerIsBetter)),
				cell("%d→%d", count(m+"pairs_traced", traced.Stats.Stats.AllowedPairsRefined, perf.Exact),
					count(m+"pairs_bside", ext.Stats.AllowedPairs, perf.Exact)),
				cell("%d→%d", count(m+"flow_edges_traced", traced.Stats.Meta.SyscallFlow.EdgeCount(), perf.Exact),
					count(m+"flow_edges_bside", ext.Stats.FlowEdges, perf.Exact)),
				cell("%d→%d", count(m+"const_args_traced", tracedConsts, perf.Exact),
					count(m+"const_args_bside", ext.Stats.ConstArgs, perf.Exact)),
				cell("%d", count(m+"unbound_args", ext.Stats.TopArgs, perf.Exact)),
			},
			Hidden: []Value{violations(m+"traced_violations", traced), violations(m+"bside_violations", bside)},
		}, nil
	})
}

// runExtracted runs app's raw (intrinsic-free) binary under full
// protection with the fs extension, enforcing the policy binscan extracts
// from it. Extraction is read-only on a linked program, so it reads the
// shared raw program.
func runExtracted(app string, units int) (*RunResult, *binscan.Result, error) {
	prog, err := sharedArtifacts.Raw(app)
	if err != nil {
		return nil, nil, err
	}
	ext, err := binscan.Extract(prog)
	if err != nil {
		return nil, nil, err
	}
	d := MitFull
	d.Monitor.ExtendFS = true
	r, err := runOn(app, units, &core.Artifact{Prog: prog, Meta: ext.Meta}, d)
	return r, ext, err
}
