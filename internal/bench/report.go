package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"bastion/internal/attacks"
)

// Report bundles every experiment into one artifact-evaluation document.
type Report struct {
	Units   int
	Figure3 []Figure3Row
	Table3  []Table3Row
	Table4  *Table4Result
	Table5  []Table5Row
	Table6  []Table6Row
	Table7  []Table7Row
	Init    []*InitDepthStats
	Accept  *AblationResult
	InK     []*InKernelResult
	Filter  []*FilterAblationResult
	SF      []*SFAblationResult
	Offload []*OffloadAblationResult
	Refine  []*RefineAblationResult
	Obs     []*ObsAblationResult
	Fleet   *FleetScalingResult
	// Timings records each experiment's wall-clock duration, in the fixed
	// experiment order. It is rendered by TimingSummary, never by Markdown,
	// so report documents stay byte-identical across runs and worker
	// counts.
	Timings []ExperimentTiming
}

// ExperimentTiming is one experiment's wall-clock measurement.
type ExperimentTiming struct {
	Name    string
	Elapsed time.Duration
}

// CollectReport runs every experiment sequentially at the given unit
// count. Equivalent to CollectReportParallel(units, 1).
func CollectReport(units int) (*Report, error) {
	return CollectReportParallel(units, 1)
}

// CollectReportParallel runs every experiment across a worker pool of the
// given size (≤ 0 selects runtime.NumCPU()). Each experiment builds its
// own kernel, clock, and machine, so experiments share no simulator state;
// results land in fixed slots, making the report deterministic and
// byte-identical to a sequential run. The first error (by experiment
// order) cancels the remaining unstarted experiments.
func CollectReportParallel(units, workers int) (*Report, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	r := &Report{
		Units:   units,
		Init:    make([]*InitDepthStats, len(Apps)),
		InK:     make([]*InKernelResult, len(Apps)),
		Filter:  make([]*FilterAblationResult, len(Apps)),
		SF:      make([]*SFAblationResult, len(Apps)),
		Offload: make([]*OffloadAblationResult, len(Apps)),
		Refine:  make([]*RefineAblationResult, len(Apps)),
		Obs:     make([]*ObsAblationResult, len(Apps)),
	}
	type task struct {
		name string
		run  func() error
	}
	tasks := []task{
		{"figure 3", func() (err error) { r.Figure3, err = Figure3(units); return }},
		{"table 3", func() (err error) { r.Table3, err = Table3(units); return }},
		{"table 4", func() (err error) { r.Table4, err = Table4(units); return }},
		{"table 5", func() (err error) { r.Table5, err = Table5(); return }},
		{"table 6", func() (err error) { r.Table6, err = Table6(); return }},
		{"table 7", func() (err error) { r.Table7, err = Table7(units); return }},
		{"accept ablation", func() (err error) { r.Accept, err = AblationAcceptFastPath("nginx", units); return }},
		{"fleet scaling", func() (err error) { r.Fleet, err = FleetScaling(units); return }},
	}
	for i, app := range Apps {
		i, app := i, app
		tasks = append(tasks,
			task{"init/depth " + app, func() (err error) { r.Init[i], err = InitAndDepth(app, units); return }},
			task{"in-kernel " + app, func() (err error) { r.InK[i], err = InKernelAblation(app, units); return }},
			task{"filter ablation " + app, func() (err error) { r.Filter[i], err = FilterAblation(app, units); return }},
			task{"sf ablation " + app, func() (err error) { r.SF[i], err = SFAblation(app, units); return }},
			task{"offload ablation " + app, func() (err error) { r.Offload[i], err = OffloadAblation(app, units); return }},
			task{"refine ablation " + app, func() (err error) { r.Refine[i], err = RefineAblation(app, units); return }},
			task{"obs ablation " + app, func() (err error) { r.Obs[i], err = ObsAblation(app, units); return }},
		)
	}
	r.Timings = make([]ExperimentTiming, len(tasks))
	for i, t := range tasks {
		r.Timings[i].Name = t.name
	}

	var (
		mu       sync.Mutex
		firstIdx = len(tasks)
		firstErr error
		aborted  = make(chan struct{})
		abort    sync.Once
		wg       sync.WaitGroup
	)
	taskCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range taskCh {
				start := time.Now()
				err := tasks[i].run()
				r.Timings[i].Elapsed = time.Since(start)
				if err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, fmt.Errorf("%s: %w", tasks[i].name, err)
					}
					mu.Unlock()
					abort.Do(func() { close(aborted) })
				}
			}
		}()
	}
feed:
	for i := range tasks {
		select {
		case taskCh <- i:
		case <-aborted:
			break feed
		}
	}
	close(taskCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return r, nil
}

// TimingSummary renders per-experiment wall-clock timings (separate from
// Markdown so report documents stay deterministic).
func (r *Report) TimingSummary() string {
	var b strings.Builder
	b.WriteString("experiment wall-clock timings:\n")
	var total time.Duration
	for _, t := range r.Timings {
		fmt.Fprintf(&b, "  %-24s %8.1f ms\n", t.Name, float64(t.Elapsed.Microseconds())/1000)
		total += t.Elapsed
	}
	fmt.Fprintf(&b, "  %-24s %8.1f ms (sum of experiment times)\n", "total", float64(total.Microseconds())/1000)
	return b.String()
}

// Markdown renders the whole report as a standalone document.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# BASTION evaluation report (%d units per measurement)\n\n", r.Units)
	b.WriteString("All numbers are deterministic simulator measurements; see EXPERIMENTS.md for paper comparison.\n\n")

	b.WriteString("## Figure 3 — overhead per mitigation stack (%)\n\n")
	b.WriteString("| app | LLVM CFI | CET | CET+CT | CET+CT+CF | CET+CT+CF+AI+SF |\n|---|---|---|---|---|---|\n")
	for _, row := range r.Figure3 {
		fmt.Fprintf(&b, "| %s | %.2f | %.2f | %.2f | %.2f | %.2f |\n", row.App,
			row.Overheads[MitCFI], row.Overheads[MitCET], row.Overheads[MitCETCT],
			row.Overheads[MitCETCTCF], row.Overheads[MitFull])
	}

	b.WriteString("\n## Table 3 — raw numbers\n\n| app | unit |")
	for _, m := range Mitigations {
		fmt.Fprintf(&b, " %s |", m)
	}
	b.WriteString("\n|---|---|---|---|---|---|---|---|\n")
	for _, row := range r.Table3 {
		fmt.Fprintf(&b, "| %s | %s |", row.App, row.Unit)
		for _, c := range row.Cells {
			fmt.Fprintf(&b, " %.2f |", c.Value)
		}
		b.WriteString("\n")
	}

	b.WriteString("\n## Table 4 — sensitive syscall usage\n\n| syscall | nginx | sqlite | vsftpd |\n|---|---|---|---|\n")
	for _, row := range r.Table4.Rows {
		fmt.Fprintf(&b, "| %s | %d | %d | %d |\n", row.Syscall,
			row.Counts["nginx"], row.Counts["sqlite"], row.Counts["vsftpd"])
	}
	fmt.Fprintf(&b, "| **total monitor hook** | %d | %d | %d |\n",
		r.Table4.Hooks["nginx"], r.Table4.Hooks["sqlite"], r.Table4.Hooks["vsftpd"])

	b.WriteString("\n## Table 5 — instrumentation statistics\n\n| statistic | nginx | sqlite | vsftpd |\n|---|---|---|---|\n")
	stat := func(label string, f func(Table5Row) int) {
		fmt.Fprintf(&b, "| %s |", label)
		for _, row := range r.Table5 {
			fmt.Fprintf(&b, " %d |", f(row))
		}
		b.WriteString("\n")
	}
	stat("application callsites", func(x Table5Row) int { return x.TotalCallsites })
	stat("direct callsites", func(x Table5Row) int { return x.DirectCallsites })
	stat("indirect callsites", func(x Table5Row) int { return x.IndirectCallsites })
	stat("sensitive callsites", func(x Table5Row) int { return x.SensitiveCallsites })
	stat("sensitive called indirectly", func(x Table5Row) int { return x.SensitiveIndirect })
	stat("ctx_write_mem", func(x Table5Row) int { return x.CtxWriteMem })
	stat("ctx_bind_mem", func(x Table5Row) int { return x.CtxBindMem })
	stat("ctx_bind_const", func(x Table5Row) int { return x.CtxBindConst })
	stat("total instrumentation", func(x Table5Row) int { return x.Total })

	b.WriteString("\n## Table 6 — security case studies\n\n| attack | category | CT | CF | AI | SF | full |\n|---|---|---|---|---|---|---|\n")
	mark := func(v bool) string {
		if v {
			return "✓"
		}
		return "×"
	}
	for _, row := range r.Table6 {
		s := row.Verdict.Scenario
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s |\n", s.ID, s.Category,
			mark(row.Verdict.CT), mark(row.Verdict.CF), mark(row.Verdict.AI),
			mark(row.Verdict.SF), mark(row.Verdict.FullBlocked))
	}

	b.WriteString("\n## Table 7 — file-system syscall extension\n\n| configuration | nginx | sqlite | vsftpd |\n|---|---|---|---|\n")
	for _, row := range r.Table7 {
		fmt.Fprintf(&b, "| %s | %.2f (%.2f%%) | %.2f (%.2f%%) | %.2f (%.2f%%) |\n", row.Label,
			row.Raw["nginx"], row.Overheads["nginx"],
			row.Raw["sqlite"], row.Overheads["sqlite"],
			row.Raw["vsftpd"], row.Overheads["vsftpd"])
	}

	b.WriteString("\n## Seccomp filter ablation — linear chain vs binary search (hook-only, fs extension)\n\n")
	b.WriteString("insns/eval averages one filter evaluation over the whole kernel syscall table; insns/call is workload-weighted (Linux numbers hot syscalls lowest, favoring the sorted chain).\n\n")
	b.WriteString("| app | linear insns/eval | tree insns/eval | linear insns/call | tree insns/call | linear overhead | tree overhead |\n|---|---|---|---|---|---|---|\n")
	for _, fr := range r.Filter {
		fmt.Fprintf(&b, "| %s | %.2f | %.2f | %.2f | %.2f | %.2f%% | %.2f%% |\n", fr.App,
			fr.LinearInsns, fr.TreeInsns, fr.LinearPerCall, fr.TreePerCall,
			fr.LinearOverhead, fr.TreeOverhead)
	}

	b.WriteString("\n## Syscall-flow ablation — SF context off vs on\n\n")
	b.WriteString("Full protection with the syscall-flow context disabled (ct,cf,ai — the pre-SF configuration) and enabled. SF charges one transition-table lookup per full-mode trap; both runs must stay violation-free, since the flow graph is derived from the program's own CFG.\n\n")
	b.WriteString("| app | off mon cyc/unit | on mon cyc/unit | flow checks | traps | off overhead | on overhead |\n|---|---|---|---|---|---|---|\n")
	for _, sr := range r.SF {
		fmt.Fprintf(&b, "| %s | %.0f | %.0f | %d | %d | %.2f%% | %.2f%% |\n", sr.App,
			sr.OffMonPerUnit, sr.OnMonPerUnit, sr.FlowChecks, sr.Traps,
			sr.OffOverhead, sr.OnOverhead)
	}

	b.WriteString("\n## Verdict offload ablation — CT + const-arg checks answered in-filter\n\n")
	b.WriteString("Full mode with call-type and argument-integrity contexts (no control-flow) and the fs extension, with the verdict offload off vs on. Offloaded syscalls are decided inside the seccomp program from the syscall number and literal argument registers and never trap to the monitor; everything else falls through to RET_TRACE and the residual monitor unchanged.\n\n")
	b.WriteString("| app | off traps | on traps | avoided | offloaded nrs | off mon cyc/unit | on mon cyc/unit | off overhead | on overhead |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, or := range r.Offload {
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %.0f | %.0f | %.2f%% | %.2f%% |\n", or.App,
			or.OffTraps, or.OnTraps, or.Avoided, or.OffloadedNrs,
			or.OffMonPerUnit, or.OnMonPerUnit,
			or.OffOverhead, or.OnOverhead)
	}

	b.WriteString("\n## Points-to refinement ablation — coarse vs refined indirect-call policies\n\n")
	b.WriteString("Static policy sizes (indirect-call edges and per-syscall allowed callsite pairs) before and after the points-to refinement, and the runtime cost of enforcing each under full protection with the fs extension. Verdicts are asserted identical by the attack replay suite; only policy size and lookup cost may differ.\n\n")
	b.WriteString("| app | edges coarse→refined | pairs coarse→refined | exact sites | escaped sites | coarse mon cyc/unit | refined mon cyc/unit | coarse overhead | refined overhead |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, rr := range r.Refine {
		fmt.Fprintf(&b, "| %s | %d→%d | %d→%d | %d | %d | %.0f | %.0f | %.2f%% | %.2f%% |\n", rr.App,
			rr.EdgesCoarse, rr.EdgesRefined, rr.PairsCoarse, rr.PairsRefined,
			rr.ExactSites, rr.EscapedSites,
			rr.CoarseMonPerUnit, rr.RefinedMonPerUnit,
			rr.CoarseOverhead, rr.RefinedOverhead)
	}

	b.WriteString("\n## Observability ablation — trace sink and flight recorder on vs off\n\n")
	b.WriteString("Full protection with the fs extension, rerun with a buffered decision-trace sink and a 32-deep flight recorder attached. Telemetry reads the simulated clock but never advances it, so the cycle accounts must be bit-identical — the trace's cost is its bytes, off the simulated timeline.\n\n")
	b.WriteString("| app | off mon cyc/unit | on mon cyc/unit | traps | events | trace bytes | identical |\n|---|---|---|---|---|---|---|\n")
	for _, or := range r.Obs {
		fmt.Fprintf(&b, "| %s | %.0f | %.0f | %d | %d | %d | %s |\n", or.App,
			or.OffMonPerUnit, or.OnMonPerUnit, or.Traps, or.Events, or.TraceBytes,
			yesno(or.Identical))
	}

	b.WriteString("\n## Fleet scaling — shared vs per-tenant compilation\n\n")
	b.WriteString("Multi-tenant supervisor (internal/fleet) running the three apps round-robin under full protection. Tenant-visible results are asserted identical across the two compilation regimes; only setup cost differs.\n\n")
	b.WriteString("| tenants | shared compiles (/tenant) | per-tenant compiles (/tenant) | units/s | mon cyc/unit |\n|---|---|---|---|---|\n")
	for _, row := range r.Fleet.Rows {
		fmt.Fprintf(&b, "| %d | %d (%.3f) | %d (%.3f) | %.0f | %.0f |\n",
			row.Tenants, row.SharedCompiles, row.SharedCompilesPerTenant(),
			row.PerTenantCompiles, row.PerTenantCompilesPerTenant(),
			row.Throughput, row.MonPerUnit)
	}

	b.WriteString("\n## §9.2 / §11.2 extras\n\n")
	for _, st := range r.Init {
		fmt.Fprintf(&b, "- %s: monitor init %.2f ms; syscall depth avg %.1f (min %d, max %d)\n",
			st.App, st.InitMillis, st.AvgDepth, st.MinDepth, st.MaxDepth)
	}
	fmt.Fprintf(&b, "- accept4 fast path (nginx): %.2f%% vs %.2f%% with full-walk verification\n",
		r.Accept.FastPathOverhead, r.Accept.FullWalkOverhead)
	for _, ik := range r.InK {
		fmt.Fprintf(&b, "- in-kernel monitor (%s, fs extension): %.2f%% vs %.2f%% under ptrace\n",
			ik.App, ik.InKernelOverhead, ik.PtraceOverhead)
	}
	if cmp, err := DefenseComparisonMarkdown(); err == nil {
		b.WriteString("\n")
		b.WriteString(cmp)
	}
	return b.String()
}

// DefenseComparisonMarkdown renders representative attacks across every
// defense configuration (one per Table 6 category plus the CVE family).
func DefenseComparisonMarkdown() (string, error) {
	ids := []string{"rop-exec-01", "direct-cscfi", "cve-2013-2028", "ind-newton-cpi", "ind-jujutsu", "ord-setuid-replay"}
	rows, err := attacks.CompareDefenses(ids)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("## Defense comparison (representative attacks)\n\n")
	b.WriteString("| attack | unprotected | CT | CF | AI | SF | BASTION | CET | LLVM-CFI |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	cell := func(r attacks.ComparisonRow, def string) string {
		if !r.Blocked[def] {
			return "×"
		}
		if by := r.KilledBy[def]; by != "" {
			return "✓ (" + by + ")"
		}
		return "✓"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s | %s | %s |\n", r.Scenario.ID,
			cell(r, "unprotected"), cell(r, "CT"), cell(r, "CF"), cell(r, "AI"),
			cell(r, "SF"), cell(r, "BASTION"), cell(r, "CET"), cell(r, "LLVM-CFI"))
	}
	return b.String(), nil
}
