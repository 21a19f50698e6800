package bench

import (
	"strings"
	"testing"

	"bastion/internal/kernel"
)

// calUnits keeps unit counts small for test speed; the regeneration
// commands use DefaultUnits.
const calUnits = 30

func TestFigure3Shape(t *testing.T) {
	rows, err := Figure3(calUnits)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		cfi := r.Overheads[MitCFI]
		cet := r.Overheads[MitCET]
		ct := r.Overheads[MitCETCT]
		cf := r.Overheads[MitCETCTCF]
		full := r.Overheads[MitFull]
		// Paper shape: baselines small; context stacking monotone; all
		// configurations stay under a few percent.
		if cfi > 3 || cet > 1 {
			t.Errorf("%s: baselines too costly: cfi=%.2f cet=%.2f", r.App, cfi, cet)
		}
		if !(ct <= cf+0.01 && cf <= full+0.01) {
			t.Errorf("%s: context stacking not monotone: CT=%.2f CF=%.2f AI=%.2f", r.App, ct, cf, full)
		}
		if full <= 0 || full > 3.5 {
			t.Errorf("%s: full overhead %.2f%% outside the paper's band (<3%%)", r.App, full)
		}
	}
	// SQLite bears the highest full-protection overhead (paper: 2.01%
	// vs 0.60% and 1.65%).
	byApp := map[string]float64{}
	for _, r := range rows {
		byApp[r.App] = r.Overheads[MitFull]
	}
	if !(byApp["sqlite"] > byApp["nginx"] && byApp["sqlite"] > byApp["vsftpd"]) {
		t.Errorf("sqlite should bear the highest overhead: %v", byApp)
	}
	out := RenderFigure3(rows)
	if !strings.Contains(out, "CET+CT+CF+AI") {
		t.Error("render missing full column")
	}
	t.Logf("\n%s", out)
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3(calUnits)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Cells) != len(Mitigations) {
			t.Fatalf("%s: %d cells", r.App, len(r.Cells))
		}
		vanilla := r.Cells[0].Value
		full := r.Cells[len(r.Cells)-1].Value
		if vanilla <= 0 {
			t.Fatalf("%s vanilla = %v", r.App, vanilla)
		}
		switch r.App {
		case "vsftpd": // seconds: lower is better, protection adds time
			if full < vanilla {
				t.Errorf("vsftpd protected faster than vanilla: %v < %v", full, vanilla)
			}
		default: // throughput: protection loses a little
			if full > vanilla {
				t.Errorf("%s protected faster than vanilla: %v > %v", r.App, full, vanilla)
			}
			if full < vanilla*0.9 {
				t.Errorf("%s full protection lost >10%%: %v vs %v", r.App, full, vanilla)
			}
		}
	}
	t.Logf("\n%s", RenderTable3(rows))
}

func TestTable4Shape(t *testing.T) {
	res, err := Table4(calUnits)
	if err != nil {
		t.Fatal(err)
	}
	get := func(app, syscall string) uint64 {
		for _, r := range res.Rows {
			if r.Syscall == syscall {
				return r.Counts[app]
			}
		}
		t.Fatalf("no row %s", syscall)
		return 0
	}
	// Paper's Table 4 shape: accept4 dominates NGINX; SQLite leans on
	// mprotect; vsftpd's profile is socket/bind/listen/accept-heavy;
	// execve/fork/ptrace never fire during benchmarking.
	if get("nginx", "accept4") != calUnits {
		t.Errorf("nginx accept4 = %d, want one per request", get("nginx", "accept4"))
	}
	if get("sqlite", "mprotect") == 0 {
		t.Error("sqlite mprotect = 0")
	}
	if get("sqlite", "mprotect") <= get("nginx", "mprotect")/4 {
		t.Logf("note: nginx init-phase mprotect %d vs sqlite %d", get("nginx", "mprotect"), get("sqlite", "mprotect"))
	}
	for _, sc := range []string{"execve", "execveat", "fork", "vfork", "ptrace", "chmod"} {
		for _, app := range Apps {
			if n := get(app, sc); n != 0 {
				t.Errorf("%s %s = %d, want 0 during benchmarking", app, sc, n)
			}
		}
	}
	if get("vsftpd", "socket") <= 1 || get("vsftpd", "bind") <= 1 || get("vsftpd", "accept") <= 1 {
		t.Error("vsftpd per-transfer socket/bind/accept profile missing")
	}
	if res.Hooks["nginx"] == 0 || res.Hooks["sqlite"] == 0 || res.Hooks["vsftpd"] == 0 {
		t.Errorf("hooks = %v", res.Hooks)
	}
	t.Logf("\n%s", RenderTable4(res, calUnits))
}

func TestTable5Shape(t *testing.T) {
	rows, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TotalCallsites != r.DirectCallsites+r.IndirectCallsites {
			t.Errorf("%s: callsite sum mismatch", r.App)
		}
		if r.SensitiveCallsites == 0 {
			t.Errorf("%s: no sensitive callsites", r.App)
		}
		// The paper's key Table 5 finding: sensitive syscalls are never
		// legitimately called indirectly.
		if r.SensitiveIndirect != 0 {
			t.Errorf("%s: %d sensitive syscalls indirectly callable", r.App, r.SensitiveIndirect)
		}
		if r.Total != r.CtxWriteMem+r.CtxBindMem+r.CtxBindConst || r.Total == 0 {
			t.Errorf("%s: instrumentation totals wrong: %+v", r.App, r)
		}
	}
	t.Logf("\n%s", RenderTable5(rows))
}

func TestTable7Shape(t *testing.T) {
	rows, err := Table7(calUnits)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	hook, fetch, full := rows[0], rows[1], rows[2]
	for _, app := range Apps {
		if hook.Overheads[app] > 1.5 {
			t.Errorf("%s hook-only overhead %.2f%%, want small", app, hook.Overheads[app])
		}
		if fetch.Overheads[app] > full.Overheads[app]+1 {
			t.Errorf("%s fetch %.2f%% exceeds full %.2f%%", app, fetch.Overheads[app], full.Overheads[app])
		}
		// The paper's finding: the fetch step dominates the added cost.
		fetchShare := fetch.Overheads[app] - hook.Overheads[app]
		checkShare := full.Overheads[app] - fetch.Overheads[app]
		if fetchShare < checkShare {
			t.Errorf("%s: fetch share %.2f < checking share %.2f", app, fetchShare, checkShare)
		}
	}
	// NGINX and SQLite collapse; single-session vsftpd stays cheap.
	if full.Overheads["nginx"] < 30 || full.Overheads["sqlite"] < 30 {
		t.Errorf("fs extension should collapse nginx/sqlite: %v", full.Overheads)
	}
	if full.Overheads["vsftpd"] > 15 {
		t.Errorf("vsftpd fs overhead %.2f%%, want small", full.Overheads["vsftpd"])
	}
	t.Logf("\n%s", RenderTable7(rows))
}

func TestInitAndDepth(t *testing.T) {
	st, err := InitAndDepth("nginx", calUnits)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ≈21 ms init; average call depth 5.2, min 4, max 9.
	if st.InitMillis <= 0 || st.InitMillis > 100 {
		t.Errorf("init = %.2f ms", st.InitMillis)
	}
	if st.AvgDepth < 2 || st.AvgDepth > 10 {
		t.Errorf("avg depth = %.1f", st.AvgDepth)
	}
	if st.MinDepth < 1 || st.MaxDepth > 16 || st.MinDepth > st.MaxDepth {
		t.Errorf("depth bounds %d..%d", st.MinDepth, st.MaxDepth)
	}
	t.Logf("init=%.2fms depth avg=%.1f min=%d max=%d", st.InitMillis, st.AvgDepth, st.MinDepth, st.MaxDepth)
}

func TestAblationAcceptFastPath(t *testing.T) {
	res, err := AblationAcceptFastPath("nginx", calUnits)
	if err != nil {
		t.Fatal(err)
	}
	if res.FastPathOverhead >= res.FullWalkOverhead {
		t.Errorf("fast path %.2f%% not cheaper than full walk %.2f%%",
			res.FastPathOverhead, res.FullWalkOverhead)
	}
	t.Logf("accept4 fast path: %.2f%% vs full walk %.2f%%", res.FastPathOverhead, res.FullWalkOverhead)
}

func TestThroughputModelBottleneck(t *testing.T) {
	// Synthetic check of the queueing model: when per-unit monitor time
	// exceeds per-unit work divided by workers, throughput is capped by
	// the monitor.
	base, err := Run(RunSpec{App: "nginx", Mitigation: MitVanilla, Units: 10})
	if err != nil {
		t.Fatal(err)
	}
	if Throughput(base) <= 0 {
		t.Fatal("vanilla throughput not positive")
	}
	fs, err := Run(RunSpec{App: "nginx", Mitigation: MitFull, Units: 10, ExtendFS: true})
	if err != nil {
		t.Fatal(err)
	}
	mon := fs.Workload.PerUnitMonitor()
	if mon == 0 {
		t.Fatal("no monitor cycles recorded")
	}
	want := SimHz / mon
	if got := Throughput(fs); got > want*1.01 {
		t.Errorf("bottlenecked throughput %.0f exceeds monitor capacity %.0f", got, want)
	}
}

func TestSensitiveNamesHelper(t *testing.T) {
	names := SortedSensitiveNames()
	if len(names) != len(kernel.SensitiveSyscalls) {
		t.Fatal("name count mismatch")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatal("names not sorted")
		}
	}
}

func TestReportMarkdown(t *testing.T) {
	rep, err := CollectReport(10)
	if err != nil {
		t.Fatal(err)
	}
	md := rep.Markdown()
	for _, want := range []string{
		"## Figure 3", "## Table 3", "## Table 4", "## Table 5",
		"## Table 6", "## Table 7", "## Seccomp filter ablation",
		"## Syscall-flow ablation",
		"## Verdict offload ablation",
		"accept4 fast path", "in-kernel monitor",
		"| rop-exec-01 |", "| **total monitor hook** |",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Wall-clock timings exist for every experiment but stay out of the
	// report document (determinism).
	if len(rep.Timings) == 0 {
		t.Fatal("no timings recorded")
	}
	for _, tm := range rep.Timings {
		if tm.Elapsed <= 0 {
			t.Errorf("experiment %q has no wall-clock timing", tm.Name)
		}
	}
	if !strings.Contains(rep.TimingSummary(), "filter ablation nginx") {
		t.Errorf("timing summary incomplete:\n%s", rep.TimingSummary())
	}
}

// TestParallelReportByteIdentical is the determinism contract of the
// parallel harness: fanning experiments across workers must produce the
// same document, byte for byte, as the sequential run.
func TestParallelReportByteIdentical(t *testing.T) {
	seq, err := CollectReportParallel(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CollectReportParallel(8, 0) // 0 = NumCPU
	if err != nil {
		t.Fatal(err)
	}
	if seq.Markdown() != par.Markdown() {
		t.Fatal("parallel report differs from sequential report")
	}
}

// TestSFAblation: the syscall-flow context costs a bounded per-trap
// lookup on benign workloads (SF-on cycles strictly above SF-off, by at
// most SFCheck per flow check) and never flags the apps' own behavior —
// the flow graph derived from each program covers its runtime orderings.
func TestSFAblation(t *testing.T) {
	for _, app := range Apps {
		res, err := SFAblation(app, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.OffViolations != 0 || res.OnViolations != 0 {
			t.Errorf("%s: benign workload flagged: off=%d on=%d",
				app, res.OffViolations, res.OnViolations)
		}
		if res.FlowChecks == 0 {
			t.Fatalf("%s: SF-on run performed no flow checks", app)
		}
		if res.FlowChecks != res.Traps {
			t.Errorf("%s: flow checks %d != traps %d (SF must run on every full-mode trap)",
				app, res.FlowChecks, res.Traps)
		}
		if res.OnMonPerUnit <= res.OffMonPerUnit {
			t.Errorf("%s: SF-on monitor cycles/unit %.1f not above SF-off %.1f",
				app, res.OnMonPerUnit, res.OffMonPerUnit)
		}
		t.Logf("%s: mon cyc/unit %.1f -> %.1f, %d flow checks",
			app, res.OffMonPerUnit, res.OnMonPerUnit, res.FlowChecks)
	}
}

// TestOffloadAblation is the acceptance bar for the verdict offload: on
// the fs-extension CT+AI workloads, in-filter decisions must avoid traps
// (avoided > 0) with strictly lower monitor cycles per unit and no change
// in detection (zero violations on either side of every run).
func TestOffloadAblation(t *testing.T) {
	var rows []*OffloadAblationResult
	for _, app := range Apps {
		res, err := OffloadAblation(app, 10)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, res)
		if res.OffViolations != 0 || res.OnViolations != 0 {
			t.Errorf("%s: benign workload flagged: off=%d on=%d",
				app, res.OffViolations, res.OnViolations)
		}
		if res.Avoided == 0 {
			t.Fatalf("%s: offload avoided no traps on an fs-extension workload", app)
		}
		if res.OffloadedNrs == 0 {
			t.Fatalf("%s: empty offload plan under the qualifying config", app)
		}
		if res.OnTraps >= res.OffTraps {
			t.Errorf("%s: offload-on traps %d not below offload-off %d",
				app, res.OnTraps, res.OffTraps)
		}
		if res.OnMonPerUnit >= res.OffMonPerUnit {
			t.Errorf("%s: offload-on monitor cycles/unit %.1f not below offload-off %.1f",
				app, res.OnMonPerUnit, res.OffMonPerUnit)
		}
		if res.CyclesSavedPerUnit() <= 0 {
			t.Errorf("%s: non-positive cycles saved per unit: %.1f", app, res.CyclesSavedPerUnit())
		}
		t.Logf("%s: traps %d -> %d (%d avoided, %d nrs), mon cyc/unit %.1f -> %.1f",
			app, res.OffTraps, res.OnTraps, res.Avoided, res.OffloadedNrs,
			res.OffMonPerUnit, res.OnMonPerUnit)
	}
	out := RenderOffloadAblation(rows)
	for _, app := range Apps {
		if !strings.Contains(out, app) {
			t.Errorf("render missing app %s:\n%s", app, out)
		}
	}
}

// TestRefineAblation is the acceptance bar for the points-to refinement
// ablation: the refined policies never grow the static surface, the
// refinement never changes benign-workload behaviour (zero violations on
// both sides), and the stats line up.
func TestRefineAblation(t *testing.T) {
	for _, app := range Apps {
		res, err := RefineAblation(app, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.CoarseViolations != 0 || res.RefinedViolations != 0 {
			t.Errorf("%s: benign workload flagged: coarse=%d refined=%d",
				app, res.CoarseViolations, res.RefinedViolations)
		}
		if res.EdgesRefined > res.EdgesCoarse {
			t.Errorf("%s: refinement grew indirect edges %d -> %d",
				app, res.EdgesCoarse, res.EdgesRefined)
		}
		if res.PairsRefined > res.PairsCoarse {
			t.Errorf("%s: refinement grew allowed pairs %d -> %d",
				app, res.PairsCoarse, res.PairsRefined)
		}
		if res.ExactSites < 0 || res.EscapedSites < 0 {
			t.Errorf("%s: negative site stats: %+v", app, res)
		}
		t.Logf("%s: edges %d->%d, pairs %d->%d, exact %d, escaped %d, mon cyc/unit %.1f vs %.1f",
			app, res.EdgesCoarse, res.EdgesRefined, res.PairsCoarse, res.PairsRefined,
			res.ExactSites, res.EscapedSites, res.CoarseMonPerUnit, res.RefinedMonPerUnit)
	}
}

func TestFilterAblationTreeStrictlyCheaper(t *testing.T) {
	for _, app := range Apps {
		res, err := FilterAblation(app, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.TreeInsns <= 0 || res.LinearInsns <= 0 ||
			res.TreePerCall <= 0 || res.LinearPerCall <= 0 {
			t.Fatalf("%s: no BPF instructions recorded: %+v", app, res)
		}
		// The acceptance bar: per-hook BPF instruction count strictly lower
		// under the tree compilation for the ExtendFS set.
		if res.TreeInsns >= res.LinearInsns {
			t.Errorf("%s: tree %.2f insns/eval not below linear %.2f", app, res.TreeInsns, res.LinearInsns)
		}
		if res.TreePerCall >= res.LinearPerCall {
			t.Errorf("%s: tree %.2f insns/call not below linear %.2f", app, res.TreePerCall, res.LinearPerCall)
		}
	}
}

// TestObsAblation is the acceptance bar for the observability plane: with
// a trace sink and flight recorder attached, every workload measurement is
// bit-identical to the untraced run, and the trace fully covers the traps.
func TestObsAblation(t *testing.T) {
	for _, app := range Apps {
		res, err := ObsAblation(app, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Identical {
			t.Errorf("%s: telemetry perturbed the measurement: off %.1f vs on %.1f mon cyc/unit",
				app, res.OffMonPerUnit, res.OnMonPerUnit)
		}
		if uint64(res.Events) != res.Traps {
			t.Errorf("%s: %d trace events for %d traps", app, res.Events, res.Traps)
		}
		if res.TraceBytes == 0 {
			t.Errorf("%s: empty trace", app)
		}
		if res.FlightEvents == 0 {
			t.Errorf("%s: flight recorder empty after a traced run", app)
		}
	}
}

// TestBsideAblation is the acceptance bar for the binary-only extraction
// ablation: both regimes complete the benign workload violation-free, the
// extracted policy is never tighter than the traced one on the looseness
// axes (pairs, flow edges), and the monitor numbers are sane.
func TestBsideAblation(t *testing.T) {
	for _, app := range Apps {
		res, err := BsideAblation(app, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.TracedViolations != 0 || res.BsideViolations != 0 {
			t.Errorf("%s: benign workload flagged: traced=%d bside=%d",
				app, res.TracedViolations, res.BsideViolations)
		}
		if res.PairsBside < res.PairsTraced {
			t.Errorf("%s: extracted policy tighter than traced on allowed pairs: %d < %d",
				app, res.PairsBside, res.PairsTraced)
		}
		if res.FlowEdgesBside < res.FlowEdgesTraced {
			t.Errorf("%s: extracted flow graph smaller than traced: %d < %d",
				app, res.FlowEdgesBside, res.FlowEdgesTraced)
		}
		if res.BsideMonPerUnit <= 0 {
			t.Errorf("%s: b-side run did no monitor work (%.1f cyc/unit)", app, res.BsideMonPerUnit)
		}
		t.Logf("%s: ovh %.2f%%->%.2f%%, pairs %d->%d, edges %d->%d, consts %d->%d (+%d unbound)",
			app, res.TracedOverhead, res.BsideOverhead, res.PairsTraced, res.PairsBside,
			res.FlowEdgesTraced, res.FlowEdgesBside, res.ConstArgsTraced, res.ConstArgsBside, res.UnboundArgs)
	}
}
