package bench

import (
	"fmt"
	"sort"
	"strings"

	"bastion/internal/attacks"
	"bastion/internal/baseline/cet"
	"bastion/internal/core"
	"bastion/internal/core/binscan"
	"bastion/internal/core/metadata"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/obs"
	"bastion/internal/seccomp"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// Apps lists the evaluation applications in the paper's order.
var Apps = []string{"nginx", "sqlite", "vsftpd"}

// DefaultUnits is the per-measurement work-unit count used by the
// regeneration commands; benchmarks may scale it down.
const DefaultUnits = 120

// --- Figure 3: overhead per mitigation stack ---

// Figure3Row is one application's overhead series.
type Figure3Row struct {
	App       string
	Overheads map[Mitigation]float64 // percent vs vanilla
}

// Figure3 measures the overhead of every mitigation stack for every
// application.
func Figure3(units int) ([]Figure3Row, error) {
	var rows []Figure3Row
	for _, app := range Apps {
		base, err := Run(RunSpec{App: app, Mitigation: MitVanilla, Units: units})
		if err != nil {
			return nil, err
		}
		row := Figure3Row{App: app, Overheads: map[Mitigation]float64{}}
		for _, mit := range Mitigations[1:] {
			r, err := Run(RunSpec{App: app, Mitigation: mit, Units: units})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", app, mit, err)
			}
			row.Overheads[mit] = Overhead(base, r)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure3 formats Figure 3 rows.
func RenderFigure3(rows []Figure3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: performance overhead vs unprotected baseline (%%)\n")
	fmt.Fprintf(&b, "%-8s %10s %8s %8s %10s %16s\n", "app", "LLVM CFI", "CET", "CET+CT", "CET+CT+CF", "CET+CT+CF+AI+SF")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %10.2f %8.2f %8.2f %10.2f %16.2f\n", r.App,
			r.Overheads[MitCFI], r.Overheads[MitCET], r.Overheads[MitCETCT],
			r.Overheads[MitCETCTCF], r.Overheads[MitFull])
	}
	return b.String()
}

// --- Table 3: raw benchmark numbers ---

// Table3Cell is one raw measurement in the application's native unit.
type Table3Cell struct {
	Mitigation Mitigation
	Value      float64
}

// Table3Row is one application's raw series.
type Table3Row struct {
	App   string
	Unit  string // "MB/s", "NOTPM", "sec"
	Cells []Table3Cell
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

// Table3 measures the raw numbers behind Figure 3.
func Table3(units int) ([]Table3Row, error) {
	unitOf := map[string]string{"nginx": "MB/s", "sqlite": "NOTPM", "vsftpd": "sec"}
	var rows []Table3Row
	for _, app := range Apps {
		row := Table3Row{App: app, Unit: unitOf[app]}
		for _, mit := range Mitigations {
			r, err := Run(RunSpec{App: app, Mitigation: mit, Units: units})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", app, mit, err)
			}
			row.Cells = append(row.Cells, Table3Cell{Mitigation: mit, Value: rawValue(app, r)})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable3 formats Table 3.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: raw benchmark numbers per mitigation\n")
	fmt.Fprintf(&b, "%-8s %-6s", "app", "unit")
	for _, m := range Mitigations {
		fmt.Fprintf(&b, " %13s", m)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-6s", r.App, r.Unit)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %13.2f", c.Value)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Table 4: sensitive syscall usage ---

// Table4Row is one syscall's per-application invocation counts.
type Table4Row struct {
	Syscall string
	Counts  map[string]uint64
}

// Table4Result carries the rows plus total monitor hooks.
type Table4Result struct {
	Rows  []Table4Row
	Hooks map[string]uint64
}

// Table4 counts sensitive syscall invocations (init + steady state) under
// full protection.
func Table4(units int) (*Table4Result, error) {
	res := &Table4Result{Hooks: map[string]uint64{}}
	counts := map[string]map[uint32]uint64{}
	for _, app := range Apps {
		r, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: units})
		if err != nil {
			return nil, err
		}
		counts[app] = r.Protected.Proc.SyscallCounts
		res.Hooks[app] = r.Protected.Proc.TrapCount
	}
	for _, nr := range kernel.SensitiveSyscalls {
		row := Table4Row{Syscall: kernel.Name(nr), Counts: map[string]uint64{}}
		for _, app := range Apps {
			row.Counts[app] = counts[app][nr]
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RenderTable4 formats Table 4.
func RenderTable4(t *Table4Result, units int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: sensitive system call usage (init + %d units)\n", units)
	fmt.Fprintf(&b, "%-18s %10s %10s %10s\n", "syscall", "nginx", "sqlite", "vsftpd")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-18s %10d %10d %10d\n", r.Syscall,
			r.Counts["nginx"], r.Counts["sqlite"], r.Counts["vsftpd"])
	}
	fmt.Fprintf(&b, "%-18s %10d %10d %10d\n", "total monitor hook",
		t.Hooks["nginx"], t.Hooks["sqlite"], t.Hooks["vsftpd"])
	return b.String()
}

// --- Table 5: instrumentation statistics ---

// Table5Row is one application's static statistics.
type Table5Row struct {
	App                string
	TotalCallsites     int
	DirectCallsites    int
	IndirectCallsites  int
	SensitiveCallsites int
	SensitiveIndirect  int
	CtxWriteMem        int
	CtxBindMem         int
	CtxBindConst       int
	Total              int
}

// Table5 reports the compiler's instrumentation statistics.
func Table5() ([]Table5Row, error) {
	var rows []Table5Row
	for _, app := range Apps {
		r, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: 1})
		if err != nil {
			return nil, err
		}
		s := r.Stats.Stats
		rows = append(rows, Table5Row{
			App:                app,
			TotalCallsites:     s.TotalCallsites,
			DirectCallsites:    s.DirectCallsites,
			IndirectCallsites:  s.IndirectCallsites,
			SensitiveCallsites: s.SensitiveCallsites,
			SensitiveIndirect:  s.SensitiveIndirect,
			CtxWriteMem:        s.CtxWriteMem,
			CtxBindMem:         s.CtxBindMem,
			CtxBindConst:       s.CtxBindConst,
			Total:              s.Total(),
		})
	}
	return rows, nil
}

// RenderTable5 formats Table 5.
func RenderTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("Table 5: instrumentation statistics\n")
	fmt.Fprintf(&b, "%-38s %8s %8s %8s\n", "", "nginx", "sqlite", "vsftpd")
	get := func(f func(Table5Row) int) [3]int {
		var v [3]int
		for i, r := range rows {
			v[i] = f(r)
		}
		return v
	}
	lines := []struct {
		label string
		f     func(Table5Row) int
	}{
		{"Total # application callsites", func(r Table5Row) int { return r.TotalCallsites }},
		{"Total # arbitrary direct callsites", func(r Table5Row) int { return r.DirectCallsites }},
		{"Total # arbitrary indirect callsites", func(r Table5Row) int { return r.IndirectCallsites }},
		{"Total # sensitive callsites", func(r Table5Row) int { return r.SensitiveCallsites }},
		{"# sensitive syscalls called indirectly", func(r Table5Row) int { return r.SensitiveIndirect }},
		{"ctx_write_mem()", func(r Table5Row) int { return r.CtxWriteMem }},
		{"ctx_bind_mem()", func(r Table5Row) int { return r.CtxBindMem }},
		{"ctx_bind_const()", func(r Table5Row) int { return r.CtxBindConst }},
		{"Total instrumentation sites", func(r Table5Row) int { return r.Total }},
	}
	for _, l := range lines {
		v := get(l.f)
		fmt.Fprintf(&b, "%-38s %8d %8d %8d\n", l.label, v[0], v[1], v[2])
	}
	return b.String()
}

// --- Table 6: security case studies ---

// Table6Row is one attack's verdicts.
type Table6Row struct {
	Verdict attacks.Verdict
}

// Table6 evaluates the full attack catalog.
func Table6() ([]Table6Row, error) {
	var rows []Table6Row
	for _, s := range attacks.Catalog() {
		v, err := attacks.Evaluate(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.ID, err)
		}
		rows = append(rows, Table6Row{Verdict: v})
	}
	return rows, nil
}

// RenderTable6 formats Table 6, grouping by category.
func RenderTable6(rows []Table6Row) string {
	var b strings.Builder
	b.WriteString("Table 6: exploits blocked per context (✓ blocks, × bypassed)\n")
	fmt.Fprintf(&b, "%-18s %-58s %-3s %-3s %-3s %-3s %s\n", "id", "attack", "CT", "CF", "AI", "SF", "full")
	mark := func(v bool) string {
		if v {
			return "✓"
		}
		return "×"
	}
	cat := ""
	for _, r := range rows {
		s := r.Verdict.Scenario
		if s.Category != cat {
			cat = s.Category
			fmt.Fprintf(&b, "-- %s --\n", cat)
		}
		fmt.Fprintf(&b, "%-18s %-58s %-3s %-3s %-3s %-3s %s\n",
			s.ID, truncate(s.Name, 58),
			mark(r.Verdict.CT), mark(r.Verdict.CF), mark(r.Verdict.AI),
			mark(r.Verdict.SF), mark(r.Verdict.FullBlocked))
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// --- Table 7: file-system syscall extension ---

// Table7Row is one checkpoint configuration's results across apps.
type Table7Row struct {
	Label     string
	Raw       map[string]float64
	Overheads map[string]float64
}

// Table7 measures the §11.2 extension: protecting file-system syscalls at
// the three monitor checkpoints.
func Table7(units int) ([]Table7Row, error) {
	base := map[string]*RunResult{}
	for _, app := range Apps {
		r, err := Run(RunSpec{App: app, Mitigation: MitVanilla, Units: units})
		if err != nil {
			return nil, err
		}
		base[app] = r
	}
	configs := []struct {
		label string
		mode  monitor.Mode
	}{
		{"seccomp hook only", monitor.ModeHookOnly},
		{"fetch process state", monitor.ModeFetchOnly},
		{"full context checking", monitor.ModeFull},
	}
	var rows []Table7Row
	for _, cfg := range configs {
		row := Table7Row{Label: cfg.label, Raw: map[string]float64{}, Overheads: map[string]float64{}}
		for _, app := range Apps {
			r, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: units, ExtendFS: true, Mode: cfg.mode})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", app, cfg.label, err)
			}
			row.Raw[app] = rawValue(app, r)
			row.Overheads[app] = Overhead(base[app], r)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable7 formats Table 7.
func RenderTable7(rows []Table7Row) string {
	var b strings.Builder
	b.WriteString("Table 7: overhead with file-system syscalls protected\n")
	fmt.Fprintf(&b, "%-24s %22s %22s %22s\n", "configuration", "nginx", "sqlite", "vsftpd")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %13.2f (%5.2f%%) %13.2f (%5.2f%%) %13.2f (%5.2f%%)\n", r.Label,
			r.Raw["nginx"], r.Overheads["nginx"],
			r.Raw["sqlite"], r.Overheads["sqlite"],
			r.Raw["vsftpd"], r.Overheads["vsftpd"])
	}
	return b.String()
}

// --- §9.2 extras: monitor init cost and call-depth statistics ---

// InitDepthStats carries the §9.2 prose numbers.
type InitDepthStats struct {
	App        string
	InitMillis float64
	AvgDepth   float64
	MinDepth   int
	MaxDepth   int
}

// InitAndDepth measures monitor initialization latency and syscall stack
// depths for one application.
func InitAndDepth(app string, units int) (*InitDepthStats, error) {
	r, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: units})
	if err != nil {
		return nil, err
	}
	m := r.Protected.Machine
	return &InitDepthStats{
		App:        app,
		InitMillis: float64(r.Protected.Monitor.InitCycles) / SimHz * 1000,
		AvgDepth:   m.AvgSyscallDepth(),
		MinDepth:   m.MinDepth,
		MaxDepth:   m.MaxDepth,
	}, nil
}

// --- Ablation: accept/accept4 fast path (§9.2) ---

// AblationResult compares full protection with and without the accept
// fast path.
type AblationResult struct {
	App              string
	FastPathOverhead float64
	FullWalkOverhead float64
}

// AblationAcceptFastPath measures the §9.2 accept optimization.
func AblationAcceptFastPath(app string, units int) (*AblationResult, error) {
	base, err := Run(RunSpec{App: app, Mitigation: MitVanilla, Units: units})
	if err != nil {
		return nil, err
	}
	fast, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: units})
	if err != nil {
		return nil, err
	}
	slow, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: units, DisableAcceptFastPath: true})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		App:              app,
		FastPathOverhead: Overhead(base, fast),
		FullWalkOverhead: Overhead(base, slow),
	}, nil
}

// --- Ablation: linear vs binary-search seccomp filter ---

// FilterAblationResult compares the linear comparison-chain filter
// against the balanced binary-search compilation for one application,
// under ModeHookOnly (Table 7 row 1: pure filter cost) with the
// file-system extension, where the rule set is largest.
type FilterAblationResult struct {
	App string
	// LinearInsns / TreeInsns are executed BPF instructions per filter
	// evaluation, averaged uniformly over the kernel syscall table — the
	// O(n)-vs-O(log n) hook cost independent of workload mix.
	LinearInsns float64
	TreeInsns   float64
	// LinearPerCall / TreePerCall are executed BPF instructions per
	// syscall as measured on the workload. Linux numbers its hottest
	// syscalls lowest (read=0, write=1, ...), so the sorted linear chain
	// matches them in its first slots and the workload-weighted averages
	// sit much closer together than the table averages.
	LinearPerCall float64
	TreePerCall   float64
	// LinearOverhead / TreeOverhead are throughput overheads vs vanilla.
	LinearOverhead float64
	TreeOverhead   float64
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

// FilterAblation measures the per-hook BPF instruction cost of the two
// filter compilations for one application.
func FilterAblation(app string, units int) (*FilterAblationResult, error) {
	base, err := Run(RunSpec{App: app, Mitigation: MitVanilla, Units: units})
	if err != nil {
		return nil, err
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
	spec := RunSpec{App: app, Mitigation: MitFull, Units: units, ExtendFS: true, Mode: monitor.ModeHookOnly}
	lin, err := Run(spec)
	if err != nil {
		return nil, err
	}
	spec.TreeFilter = true
	tree, err := Run(spec)
	if err != nil {
		return nil, err
	}
	res := &FilterAblationResult{
		App:            app,
		LinearPerCall:  perCall(lin),
		TreePerCall:    perCall(tree),
		LinearOverhead: Overhead(base, lin),
		TreeOverhead:   Overhead(base, tree),
	}
	if res.LinearInsns, err = tableAvgSteps(lin.Protected.Proc.SeccompFilter()); err != nil {
		return nil, err
	}
	if res.TreeInsns, err = tableAvgSteps(tree.Protected.Proc.SeccompFilter()); err != nil {
		return nil, err
	}
	return res, nil
}

// RenderFilterAblation formats the filter ablation rows.
func RenderFilterAblation(rows []*FilterAblationResult) string {
	var b strings.Builder
	b.WriteString("Seccomp filter ablation: linear chain vs binary search (hook-only, fs extension)\n")
	fmt.Fprintf(&b, "%-8s %18s %18s %18s %18s %13s %13s\n", "app",
		"linear insns/eval", "tree insns/eval", "linear insns/call", "tree insns/call",
		"linear ovh %", "tree ovh %")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %18.2f %18.2f %18.2f %18.2f %13.2f %13.2f\n", r.App,
			r.LinearInsns, r.TreeInsns, r.LinearPerCall, r.TreePerCall,
			r.LinearOverhead, r.TreeOverhead)
	}
	return b.String()
}

// --- Ablation: syscall-flow context ---

// SFAblationResult compares full protection with the syscall-flow context
// disabled (ct,cf,ai — the pre-SF configuration) and enabled for one
// application. SF adds one transition-table lookup per full-mode trap, so
// its runtime cost is bounded by FlowChecks × SFCheck cycles; the benign
// workloads must stay violation-free either way (the ordering attacks it
// exists for are proven by the attack matrix, not here).
type SFAblationResult struct {
	App string
	// OffOverhead / OnOverhead are throughput overheads vs vanilla.
	OffOverhead float64
	OnOverhead  float64
	// OffMonPerUnit / OnMonPerUnit are monitor cycles per work unit.
	OffMonPerUnit float64
	OnMonPerUnit  float64
	// FlowChecks counts SF transition checks in the enabled run (zero in
	// the disabled run by construction); Traps the enabled run's traps.
	FlowChecks uint64
	Traps      uint64
	// OffViolations / OnViolations must both be zero: the flow graph
	// derived from the program covers its own benign behavior.
	OffViolations int
	OnViolations  int
}

// SFAblation measures the syscall-flow ablation for one application.
func SFAblation(app string, units int) (*SFAblationResult, error) {
	base, err := Run(RunSpec{App: app, Mitigation: MitVanilla, Units: units})
	if err != nil {
		return nil, err
	}
	spec := RunSpec{
		App: app, Mitigation: MitFull, Units: units,
		UseContexts: true,
		Contexts:    monitor.CallType | monitor.ControlFlow | monitor.ArgIntegrity,
	}
	off, err := Run(spec)
	if err != nil {
		return nil, err
	}
	spec.UseContexts = false
	on, err := Run(spec)
	if err != nil {
		return nil, err
	}
	if got := off.Protected.Monitor.FlowChecks; got != 0 {
		return nil, fmt.Errorf("%s: SF-disabled run performed %d flow checks", app, got)
	}
	return &SFAblationResult{
		App:           app,
		OffOverhead:   Overhead(base, off),
		OnOverhead:    Overhead(base, on),
		OffMonPerUnit: off.Workload.PerUnitMonitor(),
		OnMonPerUnit:  on.Workload.PerUnitMonitor(),
		FlowChecks:    on.Protected.Monitor.FlowChecks,
		Traps:         on.Protected.Proc.TrapCount,
		OffViolations: len(off.Protected.Monitor.Violations),
		OnViolations:  len(on.Protected.Monitor.Violations),
	}, nil
}

// RenderSFAblation formats the syscall-flow ablation rows.
func RenderSFAblation(rows []*SFAblationResult) string {
	var b strings.Builder
	b.WriteString("Syscall-flow ablation: full protection with SF off (ct,cf,ai) vs on (monitor cycles per unit)\n")
	fmt.Fprintf(&b, "%-8s %16s %16s %12s %8s %13s %13s\n", "app",
		"off mon cyc/unit", "on mon cyc/unit", "flow checks", "traps", "off ovh %", "on ovh %")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %16.0f %16.0f %12d %8d %13.2f %13.2f\n", r.App,
			r.OffMonPerUnit, r.OnMonPerUnit, r.FlowChecks, r.Traps,
			r.OffOverhead, r.OnOverhead)
	}
	return b.String()
}

// --- Ablation: in-filter verdict offload ---

// OffloadAblationResult compares full-mode protection with the verdict
// offload off and on for one application. The configuration is call-type +
// argument-integrity with the file-system extension — the "CT/const-AI
// only" shape where every extension syscall's verdict is decidable from
// seccomp_data, so the offload's trap savings are maximal. (Control flow
// disqualifies offload by construction: the CF context judges the whole
// unwound stack.)
type OffloadAblationResult struct {
	App string
	// OffOverhead / OnOverhead are throughput overheads vs vanilla.
	OffOverhead float64
	OnOverhead  float64
	// OffMonPerUnit / OnMonPerUnit are modeled monitor cycles per work
	// unit; the offload must strictly lower this on trap-heavy workloads.
	OffMonPerUnit float64
	OnMonPerUnit  float64
	// OffTraps / OnTraps are monitor stops (SECCOMP_RET_TRACE) taken;
	// Avoided counts in-filter RET_LOG allows — traps the pure-monitor
	// filter would have taken.
	OffTraps uint64
	OnTraps  uint64
	Avoided  uint64
	// OffloadedNrs is how many syscalls the plan answered in-filter.
	OffloadedNrs int
	// Both must be zero on the benign workload; the offload differential
	// suite proves verdict equivalence in general.
	OffViolations int
	OnViolations  int
}

// CyclesSavedPerUnit is the per-unit monitor-cycle saving.
func (r *OffloadAblationResult) CyclesSavedPerUnit() float64 {
	return r.OffMonPerUnit - r.OnMonPerUnit
}

// OffloadAblation measures the verdict-offload ablation for one
// application.
func OffloadAblation(app string, units int) (*OffloadAblationResult, error) {
	base, err := Run(RunSpec{App: app, Mitigation: MitVanilla, Units: units})
	if err != nil {
		return nil, err
	}
	spec := RunSpec{
		App: app, Mitigation: MitFull, Units: units, ExtendFS: true,
		UseContexts: true, Contexts: monitor.CallType | monitor.ArgIntegrity,
	}
	off, err := Run(spec)
	if err != nil {
		return nil, err
	}
	spec.Offload = true
	on, err := Run(spec)
	if err != nil {
		return nil, err
	}
	mon := on.Protected.Monitor
	return &OffloadAblationResult{
		App:           app,
		OffOverhead:   Overhead(base, off),
		OnOverhead:    Overhead(base, on),
		OffMonPerUnit: off.Workload.PerUnitMonitor(),
		OnMonPerUnit:  on.Workload.PerUnitMonitor(),
		OffTraps:      off.Workload.Traps,
		OnTraps:       on.Workload.Traps,
		Avoided:       mon.OffloadAvoided(),
		OffloadedNrs:  len(mon.Offload.Rules),
		OffViolations: len(off.Protected.Monitor.Violations),
		OnViolations:  len(on.Protected.Monitor.Violations),
	}, nil
}

// RenderOffloadAblation formats the offload ablation rows.
func RenderOffloadAblation(rows []*OffloadAblationResult) string {
	var b strings.Builder
	b.WriteString("Verdict offload ablation: CT+AI, fs extension (in-filter decisions vs monitor traps)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %8s %16s %16s %13s %13s\n", "app",
		"off traps", "on traps", "avoided", "nrs",
		"off mon cyc/unit", "on mon cyc/unit", "off ovh %", "on ovh %")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %10d %10d %10d %8d %16.0f %16.0f %13.2f %13.2f\n", r.App,
			r.OffTraps, r.OnTraps, r.Avoided, r.OffloadedNrs,
			r.OffMonPerUnit, r.OnMonPerUnit, r.OffOverhead, r.OnOverhead)
	}
	return b.String()
}

// RefineAblationResult compares monitor behaviour under the coarse
// address-taken AllowedIndirect sets against the points-to–refined sets
// for one application, alongside the static policy-size deltas.
type RefineAblationResult struct {
	App string
	// CoarseOverhead / RefinedOverhead are percent vs vanilla under full
	// protection with the fs extension.
	CoarseOverhead  float64
	RefinedOverhead float64
	// Monitor cycles per work unit — the CF walk terminates at the
	// indirect-callsite policy lookup, so any set-size effect lands here.
	CoarseMonPerUnit  float64
	RefinedMonPerUnit float64
	// Static policy sizes from the compiler's refinement statistics.
	EdgesCoarse  int // Σ per-site candidate targets, address-taken
	EdgesRefined int // Σ per-site candidate targets, points-to–refined
	PairsCoarse  int // Σ per-syscall allowed callsite addresses, coarse
	PairsRefined int // Σ per-syscall allowed callsite addresses, refined
	ExactSites   int // indirect callsites pinned by the points-to pass
	EscapedSites int // indirect callsites falling back to address-taken
	// Both must be zero on the benign workload; the attack replay suite
	// proves verdict equivalence in general.
	CoarseViolations  int
	RefinedViolations int
}

// RefineAblation measures the points-to refinement ablation for one
// application: identical full-protection runs, one enforcing the coarse
// pre-refinement AllowedIndirect sets and one the refined sets.
func RefineAblation(app string, units int) (*RefineAblationResult, error) {
	base, err := Run(RunSpec{App: app, Mitigation: MitVanilla, Units: units})
	if err != nil {
		return nil, err
	}
	spec := RunSpec{App: app, Mitigation: MitFull, Units: units, ExtendFS: true}
	spec.CoarsePolicies = true
	coarse, err := Run(spec)
	if err != nil {
		return nil, err
	}
	spec.CoarsePolicies = false
	refined, err := Run(spec)
	if err != nil {
		return nil, err
	}
	st := refined.Stats.Stats
	return &RefineAblationResult{
		App:               app,
		CoarseOverhead:    Overhead(base, coarse),
		RefinedOverhead:   Overhead(base, refined),
		CoarseMonPerUnit:  coarse.Workload.PerUnitMonitor(),
		RefinedMonPerUnit: refined.Workload.PerUnitMonitor(),
		EdgesCoarse:       st.IndirectEdgesCoarse,
		EdgesRefined:      st.IndirectEdgesRefined,
		PairsCoarse:       st.AllowedPairsCoarse,
		PairsRefined:      st.AllowedPairsRefined,
		ExactSites:        st.ExactIndirectSites,
		EscapedSites:      st.EscapedIndirectSites,
		CoarseViolations:  len(coarse.Protected.Monitor.Violations),
		RefinedViolations: len(refined.Protected.Monitor.Violations),
	}, nil
}

// RenderRefineAblation formats the refinement ablation rows.
func RenderRefineAblation(rows []*RefineAblationResult) string {
	var b strings.Builder
	b.WriteString("Points-to refinement ablation: full protection, fs extension\n")
	fmt.Fprintf(&b, "%-8s %11s %12s %16s %16s %13s %13s %6s %7s\n", "app",
		"edges c->r", "pairs c->r", "coarse cyc/unit", "refined cyc/unit",
		"coarse ovh %", "refined ovh %", "exact", "escaped")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %5d->%-5d %5d->%-5d %16.0f %16.0f %13.2f %13.2f %6d %7d\n", r.App,
			r.EdgesCoarse, r.EdgesRefined, r.PairsCoarse, r.PairsRefined,
			r.CoarseMonPerUnit, r.RefinedMonPerUnit,
			r.CoarseOverhead, r.RefinedOverhead,
			r.ExactSites, r.EscapedSites)
	}
	return b.String()
}

// ObsAblationResult compares a fully protected run with telemetry off
// against the identical run with a decision-trace sink and flight recorder
// attached — the observability plane's zero-cost claim. Telemetry reads
// the simulated clock but never advances it, so every cycle account must
// be bit-identical, not merely close.
type ObsAblationResult struct {
	App string
	// Identical reports whether the two runs' full workload measurements
	// (units, bytes, and every cycle account) matched exactly.
	Identical bool
	// OffMonPerUnit / OnMonPerUnit are monitor cycles per work unit with
	// telemetry off and on; Identical implies they are equal.
	OffMonPerUnit float64
	OnMonPerUnit  float64
	// Traps and Events count the traced run's monitor hooks and emitted
	// trace events (they must agree); TraceBytes is the JSONL trace size
	// — the observability cost lives here, off the simulated timeline.
	Traps      uint64
	Events     int
	TraceBytes int
	// FlightEvents is the flight-recorder occupancy after the run.
	FlightEvents int
}

// ObsAblation measures the observability ablation for one application:
// full protection with the fs extension, telemetry off versus a buffered
// trace sink plus a 32-deep flight recorder.
func ObsAblation(app string, units int) (*ObsAblationResult, error) {
	spec := RunSpec{App: app, Mitigation: MitFull, Units: units, ExtendFS: true}
	off, err := Run(spec)
	if err != nil {
		return nil, err
	}
	sink := &obs.BufferSink{}
	spec.Sink = sink
	spec.FlightN = 32
	on, err := Run(spec)
	if err != nil {
		return nil, err
	}
	var trace strings.Builder
	if err := obs.WriteJSONL(&trace, sink.Events); err != nil {
		return nil, err
	}
	return &ObsAblationResult{
		App:           app,
		Identical:     off.Workload == on.Workload,
		OffMonPerUnit: off.Workload.PerUnitMonitor(),
		OnMonPerUnit:  on.Workload.PerUnitMonitor(),
		Traps:         on.Protected.Monitor.Hooks,
		Events:        len(sink.Events),
		TraceBytes:    trace.Len(),
		FlightEvents:  on.Protected.Monitor.Recorder.Len(),
	}, nil
}

// RenderObsAblation formats the observability ablation rows.
func RenderObsAblation(rows []*ObsAblationResult) string {
	var b strings.Builder
	b.WriteString("Observability ablation: full protection, fs extension; trace sink + flight recorder on vs off\n")
	fmt.Fprintf(&b, "%-8s %16s %15s %8s %8s %11s %9s\n", "app",
		"off mon cyc/unit", "on mon cyc/unit", "traps", "events", "trace bytes", "identical")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %16.0f %15.0f %8d %8d %11d %9s\n", r.App,
			r.OffMonPerUnit, r.OnMonPerUnit, r.Traps, r.Events, r.TraceBytes, yesno(r.Identical))
	}
	return b.String()
}

func yesno(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// InKernelResult compares the ptrace monitor against the §11.2 in-kernel
// design under the file-system extension, where state fetching dominates.
type InKernelResult struct {
	App              string
	PtraceOverhead   float64
	InKernelOverhead float64
}

// InKernelAblation measures how much of the Table 7 overhead the paper's
// proposed in-kernel monitor recovers.
func InKernelAblation(app string, units int) (*InKernelResult, error) {
	base, err := Run(RunSpec{App: app, Mitigation: MitVanilla, Units: units})
	if err != nil {
		return nil, err
	}
	ptrace, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: units, ExtendFS: true})
	if err != nil {
		return nil, err
	}
	inK, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: units, ExtendFS: true, InKernel: true})
	if err != nil {
		return nil, err
	}
	return &InKernelResult{
		App:              app,
		PtraceOverhead:   Overhead(base, ptrace),
		InKernelOverhead: Overhead(base, inK),
	}, nil
}

// SortedSensitiveNames returns the sensitive syscall names in Table 1
// order (stable helper for reports).
func SortedSensitiveNames() []string {
	names := make([]string, len(kernel.SensitiveSyscalls))
	for i, nr := range kernel.SensitiveSyscalls {
		names[i] = kernel.Name(nr)
	}
	sort.Strings(names)
	return names
}

// --- B-Side ablation: binary-only extracted policy vs compiler-traced ---

// BsideAblationResult compares full protection under the compiler-traced
// policy against full protection under the policy the binary-only
// extractor (internal/core/binscan) recovers from the uninstrumented
// program — the extraction-regime overhead and policy-looseness numbers.
type BsideAblationResult struct {
	App string
	// TracedOverhead / BsideOverhead are percent vs vanilla, full
	// contexts with the fs extension. The b-side run
	// executes the raw (intrinsic-free) binary, so its guest does less
	// work per unit while its monitor checks the same trap stream.
	TracedOverhead float64
	BsideOverhead  float64
	// Monitor cycles per work unit under each policy.
	TracedMonPerUnit float64
	BsideMonPerUnit  float64
	// Policy looseness: allowed (syscall, indirect-callsite) pairs and
	// transition-graph edges, traced vs extracted. Extraction stops at the
	// address-taken ∩ type-match frontier, so its pair count matches the
	// compiler's pre-refinement count and bounds the traced one below.
	PairsTraced     int
	PairsBside      int
	FlowEdgesTraced int
	FlowEdgesBside  int
	// Constant-argument bindings recovered (traced counts ArgConst specs
	// at syscall callsites; bside adds UnboundArgs for the positions the
	// dataflow abandoned to ⊤).
	ConstArgsTraced int
	ConstArgsBside  int
	UnboundArgs     int
	// Both runs execute the identical benign workload, so both counts
	// must be zero — the ablation doubles as a soundness probe.
	TracedViolations int
	BsideViolations  int
}

// BsideAblation measures the binary-only extraction ablation for one
// application: identical full-protection workload runs, one enforcing the
// compiler-traced metadata on the instrumented binary, one enforcing the
// extracted metadata on the raw binary.
func BsideAblation(app string, units int) (*BsideAblationResult, error) {
	base, err := Run(RunSpec{App: app, Mitigation: MitVanilla, Units: units})
	if err != nil {
		return nil, err
	}
	traced, err := Run(RunSpec{App: app, Mitigation: MitFull, Units: units, ExtendFS: true})
	if err != nil {
		return nil, err
	}

	// The b-side leg: extract from the shared raw program (extraction is
	// read-only on a linked program) and launch it under the extracted
	// policy with the same monitor configuration and mitigation stack.
	prog, err := sharedArtifacts.Raw(app)
	if err != nil {
		return nil, err
	}
	ext, err := binscan.Extract(prog, binscan.Options{})
	if err != nil {
		return nil, err
	}
	target, err := workload.NewTarget(app)
	if err != nil {
		return nil, err
	}
	k := kernel.New(nil)
	k.Costs.IOPerByte = workload.IOPerByte(app)
	if err := target.Fixture(k); err != nil {
		return nil, err
	}
	cfg := monitor.DefaultConfig()
	cfg.ExtendFS = true
	prot, err := core.Launch(&core.Artifact{Prog: prog, Meta: ext.Meta}, k, cfg,
		vm.WithMitigations(cet.New()), vm.WithMaxSteps(1<<34))
	if err != nil {
		return nil, err
	}
	wl, err := workload.Run(target, prot, units)
	if err != nil {
		return nil, err
	}
	bres := &RunResult{Spec: RunSpec{App: app, Units: units}, Workload: wl, Target: target, Protected: prot}

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
	st := traced.Stats.Stats
	return &BsideAblationResult{
		App:              app,
		TracedOverhead:   Overhead(base, traced),
		BsideOverhead:    Overhead(base, bres),
		TracedMonPerUnit: traced.Workload.PerUnitMonitor(),
		BsideMonPerUnit:  bres.Workload.PerUnitMonitor(),
		PairsTraced:      st.AllowedPairsRefined,
		PairsBside:       ext.Stats.AllowedPairs,
		FlowEdgesTraced:  traced.Stats.Meta.SyscallFlow.EdgeCount(),
		FlowEdgesBside:   ext.Stats.FlowEdges,
		ConstArgsTraced:  tracedConsts,
		ConstArgsBside:   ext.Stats.ConstArgs,
		UnboundArgs:      ext.Stats.TopArgs,
		TracedViolations: len(traced.Protected.Monitor.Violations),
		BsideViolations:  len(prot.Monitor.Violations),
	}, nil
}

// RenderBsideAblation formats the extraction ablation rows.
func RenderBsideAblation(rows []*BsideAblationResult) string {
	var b strings.Builder
	b.WriteString("B-Side ablation: full protection, traced metadata (instrumented binary) vs extracted metadata (raw binary)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %16s %16s %12s %12s %12s %6s\n", "app",
		"traced ovh %", "bside ovh %", "traced cyc/unit", "bside cyc/unit",
		"pairs t->b", "edges t->b", "consts t->b", "viol")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12.2f %12.2f %16.0f %16.0f %5d->%-6d %5d->%-6d %5d->%-6d %3d/%-3d\n", r.App,
			r.TracedOverhead, r.BsideOverhead,
			r.TracedMonPerUnit, r.BsideMonPerUnit,
			r.PairsTraced, r.PairsBside,
			r.FlowEdgesTraced, r.FlowEdgesBside,
			r.ConstArgsTraced, r.ConstArgsBside,
			r.TracedViolations, r.BsideViolations)
	}
	return b.String()
}
