package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bastion/internal/core"
	"bastion/internal/workload"
)

// calUnits keeps unit counts small for test speed; the regeneration
// commands use DefaultUnits.
const calUnits = 30

var (
	measuredMu sync.Mutex
	measured   = map[string]*Table{}
)

// measure runs one registry experiment once per unit count per test
// binary and indexes its metrics by name.
func measure(t *testing.T, name string, units int) (*Table, map[string]float64) {
	t.Helper()
	measuredMu.Lock()
	defer measuredMu.Unlock()
	key := fmt.Sprintf("%s@%d", name, units)
	tab, ok := measured[key]
	if !ok {
		e, found := Lookup(name)
		if !found {
			t.Fatalf("no experiment %q", name)
		}
		var err error
		if tab, err = e.Run(units); err != nil {
			t.Fatal(err)
		}
		measured[key] = tab
	}
	return tab, byName(tab)
}

// byName indexes a table's metrics by name.
func byName(tab *Table) map[string]float64 {
	m := map[string]float64{}
	for _, x := range tab.Metrics() {
		m[x.Name] = x.Value
	}
	return m
}

// get reads one metric, failing the test if the table lacks it.
func get(t *testing.T, m map[string]float64, name string) float64 {
	t.Helper()
	v, ok := m[name]
	if !ok {
		t.Fatalf("no metric %q", name)
	}
	return v
}

func TestFigure3Shape(t *testing.T) {
	tab, m := measure(t, "fig3", calUnits)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, app := range workload.Apps {
		ovh := func(mit core.Defense) float64 { return get(t, m, "fig3."+app+"."+mitSlug(mit)+".overhead_pct") }
		cfi, cet, ct, cf, full := ovh(MitCFI), ovh(MitCET), ovh(MitCETCT), ovh(MitCETCTCF), ovh(MitFull)
		// Paper shape: baselines small; context stacking monotone; all
		// configurations stay under a few percent.
		if cfi > 3 || cet > 1 {
			t.Errorf("%s: baselines too costly: cfi=%.2f cet=%.2f", app, cfi, cet)
		}
		if !(ct <= cf+0.01 && cf <= full+0.01) {
			t.Errorf("%s: context stacking not monotone: CT=%.2f CF=%.2f AI=%.2f", app, ct, cf, full)
		}
		if full <= 0 || full > 3.5 {
			t.Errorf("%s: full overhead %.2f%% outside the paper's band (<3%%)", app, full)
		}
	}
	// SQLite bears the highest full-protection overhead (paper: 2.01%
	// vs 0.60% and 1.65%).
	full := func(app string) float64 { return get(t, m, "fig3."+app+".full.overhead_pct") }
	if !(full("sqlite") > full("nginx") && full("sqlite") > full("vsftpd")) {
		t.Errorf("sqlite should bear the highest overhead: nginx %.2f sqlite %.2f vsftpd %.2f",
			full("nginx"), full("sqlite"), full("vsftpd"))
	}
	out := tab.Markdown()
	if !strings.Contains(out, "CET+CT+CF+AI") {
		t.Error("render missing full column")
	}
	t.Logf("\n%s", out)
}

func TestTable3Shape(t *testing.T) {
	tab, m := measure(t, "table3", calUnits)
	for _, app := range workload.Apps {
		raw := func(mit core.Defense) float64 { return get(t, m, "table3."+app+"."+mitSlug(mit)+".raw") }
		for _, mit := range Mitigations {
			raw(mit)
		}
		vanilla, full := raw(MitVanilla), raw(MitFull)
		if vanilla <= 0 {
			t.Fatalf("%s vanilla = %v", app, vanilla)
		}
		switch app {
		case "vsftpd": // seconds: lower is better, protection adds time
			if full < vanilla {
				t.Errorf("vsftpd protected faster than vanilla: %v < %v", full, vanilla)
			}
		default: // throughput: protection loses a little
			if full > vanilla {
				t.Errorf("%s protected faster than vanilla: %v > %v", app, full, vanilla)
			}
			if full < vanilla*0.9 {
				t.Errorf("%s full protection lost >10%%: %v vs %v", app, full, vanilla)
			}
		}
	}
	t.Logf("\n%s", tab.Markdown())
}

func TestTable4Shape(t *testing.T) {
	tab, m := measure(t, "table4", calUnits)
	calls := func(app, syscall string) float64 { return get(t, m, "table4."+app+"."+syscall+".calls") }
	// Paper's Table 4 shape: accept4 dominates NGINX; SQLite leans on
	// mprotect; vsftpd's profile is socket/bind/listen/accept-heavy;
	// execve/fork/ptrace never fire during benchmarking.
	if calls("nginx", "accept4") != calUnits {
		t.Errorf("nginx accept4 = %.0f, want one per request", calls("nginx", "accept4"))
	}
	if calls("sqlite", "mprotect") == 0 {
		t.Error("sqlite mprotect = 0")
	}
	if calls("sqlite", "mprotect") <= calls("nginx", "mprotect")/4 {
		t.Logf("note: nginx init-phase mprotect %.0f vs sqlite %.0f", calls("nginx", "mprotect"), calls("sqlite", "mprotect"))
	}
	for _, sc := range []string{"execve", "execveat", "fork", "vfork", "ptrace", "chmod"} {
		for _, app := range workload.Apps {
			if n := calls(app, sc); n != 0 {
				t.Errorf("%s %s = %.0f, want 0 during benchmarking", app, sc, n)
			}
		}
	}
	if calls("vsftpd", "socket") <= 1 || calls("vsftpd", "bind") <= 1 || calls("vsftpd", "accept") <= 1 {
		t.Error("vsftpd per-transfer socket/bind/accept profile missing")
	}
	for _, app := range workload.Apps {
		if get(t, m, "table4."+app+".hooks") == 0 {
			t.Errorf("%s: no monitor hooks", app)
		}
	}
	t.Logf("\n%s", tab.Markdown())
}

func TestTable5Shape(t *testing.T) {
	tab, m := measure(t, "table5", 1)
	for _, app := range workload.Apps {
		stat := func(name string) float64 { return get(t, m, "table5."+app+"."+name) }
		if stat("callsites_total") != stat("callsites_direct")+stat("callsites_indirect") {
			t.Errorf("%s: callsite sum mismatch", app)
		}
		if stat("callsites_sensitive") == 0 {
			t.Errorf("%s: no sensitive callsites", app)
		}
		// The paper's key Table 5 finding: sensitive syscalls are never
		// legitimately called indirectly.
		if n := stat("sensitive_indirect"); n != 0 {
			t.Errorf("%s: %.0f sensitive syscalls indirectly callable", app, n)
		}
		total := stat("instrumentation_total")
		if total != stat("ctx_write_mem")+stat("ctx_bind_mem")+stat("ctx_bind_const") || total == 0 {
			t.Errorf("%s: instrumentation totals wrong: total %.0f", app, total)
		}
	}
	t.Logf("\n%s", tab.Markdown())
}

func TestTable7Shape(t *testing.T) {
	tab, m := measure(t, "table7", calUnits)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, app := range workload.Apps {
		ovh := func(cfg string) float64 { return get(t, m, "table7."+cfg+"."+app+".overhead_pct") }
		hook, fetch, full := ovh("hook_only"), ovh("fetch"), ovh("full")
		if hook > 1.5 {
			t.Errorf("%s hook-only overhead %.2f%%, want small", app, hook)
		}
		if fetch > full+1 {
			t.Errorf("%s fetch %.2f%% exceeds full %.2f%%", app, fetch, full)
		}
		// The paper's finding: the fetch step dominates the added cost.
		if fetchShare, checkShare := fetch-hook, full-fetch; fetchShare < checkShare {
			t.Errorf("%s: fetch share %.2f < checking share %.2f", app, fetchShare, checkShare)
		}
	}
	// NGINX and SQLite collapse; single-session vsftpd stays cheap.
	full := func(app string) float64 { return get(t, m, "table7.full."+app+".overhead_pct") }
	if full("nginx") < 30 || full("sqlite") < 30 {
		t.Errorf("fs extension should collapse nginx/sqlite: nginx %.2f%% sqlite %.2f%%", full("nginx"), full("sqlite"))
	}
	if full("vsftpd") > 15 {
		t.Errorf("vsftpd fs overhead %.2f%%, want small", full("vsftpd"))
	}
	t.Logf("\n%s", tab.Markdown())
}

func TestInitAndDepth(t *testing.T) {
	_, m := measure(t, "extras", calUnits)
	initMS := get(t, m, "init.nginx.init_ms")
	avg := get(t, m, "init.nginx.avg_depth")
	lo, hi := get(t, m, "init.nginx.min_depth"), get(t, m, "init.nginx.max_depth")
	// Paper: ≈21 ms init; average call depth 5.2, min 4, max 9.
	if initMS <= 0 || initMS > 100 {
		t.Errorf("init = %.2f ms", initMS)
	}
	if avg < 2 || avg > 10 {
		t.Errorf("avg depth = %.1f", avg)
	}
	if lo < 1 || hi > 16 || lo > hi {
		t.Errorf("depth bounds %.0f..%.0f", lo, hi)
	}
	t.Logf("init=%.2fms depth avg=%.1f min=%.0f max=%.0f", initMS, avg, lo, hi)
}

func TestAblationAcceptFastPath(t *testing.T) {
	_, m := measure(t, "extras", calUnits)
	fast, walk := get(t, m, "accept.fast_path.overhead_pct"), get(t, m, "accept.full_walk.overhead_pct")
	if fast >= walk {
		t.Errorf("fast path %.2f%% not cheaper than full walk %.2f%%", fast, walk)
	}
	t.Logf("accept4 fast path: %.2f%% vs full walk %.2f%%", fast, walk)
}

func TestInKernelAblation(t *testing.T) {
	_, m := measure(t, "extras", calUnits)
	for _, app := range workload.Apps {
		ptrace := get(t, m, "inkernel."+app+".ptrace.overhead_pct")
		inK := get(t, m, "inkernel."+app+".inkernel.overhead_pct")
		if inK >= ptrace {
			t.Errorf("%s: in-kernel %.2f%% not cheaper than ptrace %.2f%%", app, inK, ptrace)
		}
		// The §11.2 claim: with in-kernel execution, even full file-system
		// coverage stays low-overhead.
		if inK > 10 {
			t.Errorf("%s: in-kernel fs overhead %.2f%%, want low", app, inK)
		}
		t.Logf("%s: fs-extension overhead ptrace=%.2f%% in-kernel=%.2f%%", app, ptrace, inK)
	}
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

var (
	collectedMu sync.Mutex
	collected   = map[string]*Report{}
)

// collect runs the registry report once per (units, workers) per test
// binary.
func collect(t *testing.T, units, workers int) *Report {
	t.Helper()
	collectedMu.Lock()
	defer collectedMu.Unlock()
	key := fmt.Sprintf("%d/%d", units, workers)
	if rep, ok := collected[key]; ok {
		return rep
	}
	rep, err := CollectReport(Experiments, units, workers)
	if err != nil {
		t.Fatal(err)
	}
	collected[key] = rep
	return rep
}

func TestReportMarkdown(t *testing.T) {
	rep := collect(t, 10, 1)
	md := rep.Markdown()
	for _, want := range []string{
		"## Figure 3", "## Table 3", "## Table 4", "## Table 5",
		"## Table 6", "## Table 7", "## Seccomp filter ablation",
		"## Syscall-flow ablation",
		"## Verdict offload ablation",
		"accept4 fast path", "in-kernel monitor",
		"| rop-exec-01 |", "| **total monitor hook** |",
		"## Defense comparison",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Wall-clock timings exist for every experiment, under its registry
	// name, but stay out of the report document (determinism).
	if len(rep.Timings) != len(Experiments) {
		t.Fatalf("%d timings for %d experiments", len(rep.Timings), len(Experiments))
	}
	for i, tm := range rep.Timings {
		if tm.Name != Experiments[i].Name {
			t.Errorf("timing %d is %q, want %q", i, tm.Name, Experiments[i].Name)
		}
		if tm.Elapsed <= 0 {
			t.Errorf("experiment %q has no wall-clock timing", tm.Name)
		}
		if !strings.Contains(rep.TimingSummary(), "  "+tm.Name+" ") {
			t.Errorf("timing summary lacks %q:\n%s", tm.Name, rep.TimingSummary())
		}
	}
	if strings.Contains(md, "wall-clock") {
		t.Error("timings leaked into the report document")
	}
}

// TestCellFormatsUseExplicitVerbs: every cell of every table formats with
// an explicit verb (never %v) and consumes exactly its values. The
// determinism lint cannot see these formats, since they are data.
func TestCellFormatsUseExplicitVerbs(t *testing.T) {
	rep := collect(t, 8, 1)
	for i, tab := range rep.Tables {
		for _, row := range tab.Rows {
			for _, c := range row.Cells {
				if strings.Contains(c.Format, "%v") || strings.Contains(c.Format, "%+v") || strings.Contains(c.Format, "%#v") {
					t.Errorf("%s: cell format %q uses %%v", Experiments[i].Name, c.Format)
				}
				if out := c.render(); strings.Contains(out, "%!") {
					t.Errorf("%s: cell format %q does not fit its values: %q", Experiments[i].Name, c.Format, out)
				}
			}
		}
	}
}

// TestCollectReportNamesFailingExperiment: an experiment's error fails the
// whole collection, named after the experiment, rather than dropping its
// section.
func TestCollectReportNamesFailingExperiment(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{
		{"fine", func(int) (*Table, error) { return &Table{Heading: "fine"}, nil }},
		{"broken", func(int) (*Table, error) { return nil, boom }},
		{"also-fine", func(int) (*Table, error) { return &Table{Heading: "also fine"}, nil }},
	}
	for _, workers := range []int{1, 3} {
		rep, err := CollectReport(exps, 1, workers)
		if rep != nil || !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "broken: ") {
			t.Errorf("%d worker(s): report %v, error %v; want nil and \"broken: boom\"", workers, rep, err)
		}
	}
}

// TestParallelReportByteIdentical is the determinism contract of the
// parallel harness: fanning experiments across workers must produce the
// same document, byte for byte, as the sequential run, and that document
// must match the committed golden. Refresh the golden with
//
//	go run ./cmd/bastion-bench -report internal/bench/testdata/report.golden.md -units 8
//
// only when a change to the report is intended.
func TestParallelReportByteIdentical(t *testing.T) {
	seq := collect(t, 8, 1)
	par := collect(t, 8, 0) // 0 = NumCPU
	if seq.Markdown() != par.Markdown() {
		t.Fatal("parallel report differs from sequential report")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "report.golden.md"))
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.Markdown(); got != string(golden) {
		t.Fatalf("report differs from testdata/report.golden.md at byte %d", firstDiff(got, string(golden)))
	}
}

// firstDiff returns the offset of the first byte where a and b differ.
func firstDiff(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestSFAblation: the syscall-flow context costs a bounded per-trap
// lookup on benign workloads (SF-on cycles strictly above SF-off, by at
// most SFCheck per flow check) and never flags the apps' own behavior —
// the flow graph derived from each program covers its runtime orderings.
func TestSFAblation(t *testing.T) {
	_, m := measure(t, "sf", 10)
	for _, app := range workload.Apps {
		v := func(name string) float64 { return get(t, m, "sf."+app+"."+name) }
		if v("off_violations") != 0 || v("on_violations") != 0 {
			t.Errorf("%s: benign workload flagged: off=%.0f on=%.0f",
				app, v("off_violations"), v("on_violations"))
		}
		if v("flow_checks") == 0 {
			t.Fatalf("%s: SF-on run performed no flow checks", app)
		}
		if v("flow_checks") != v("traps") {
			t.Errorf("%s: flow checks %.0f != traps %.0f (SF must run on every full-mode trap)",
				app, v("flow_checks"), v("traps"))
		}
		if v("on_mon_cyc_unit") <= v("off_mon_cyc_unit") {
			t.Errorf("%s: SF-on monitor cycles/unit %.1f not above SF-off %.1f",
				app, v("on_mon_cyc_unit"), v("off_mon_cyc_unit"))
		}
		t.Logf("%s: mon cyc/unit %.1f -> %.1f, %.0f flow checks",
			app, v("off_mon_cyc_unit"), v("on_mon_cyc_unit"), v("flow_checks"))
	}
}

// TestOffloadAblation is the acceptance bar for the verdict offload: on
// the fs-extension CT+AI workloads, in-filter decisions must avoid traps
// (avoided > 0) with strictly lower monitor cycles per unit and no change
// in detection (zero violations on either side of every run).
func TestOffloadAblation(t *testing.T) {
	tab, m := measure(t, "offload", 10)
	for _, app := range workload.Apps {
		v := func(name string) float64 { return get(t, m, "offload."+app+"."+name) }
		if v("off_violations") != 0 || v("on_violations") != 0 {
			t.Errorf("%s: benign workload flagged: off=%.0f on=%.0f",
				app, v("off_violations"), v("on_violations"))
		}
		if v("avoided") == 0 {
			t.Fatalf("%s: offload avoided no traps on an fs-extension workload", app)
		}
		if v("offloaded_nrs") == 0 {
			t.Fatalf("%s: empty offload plan under the qualifying config", app)
		}
		if v("on_traps") >= v("off_traps") {
			t.Errorf("%s: offload-on traps %.0f not below offload-off %.0f",
				app, v("on_traps"), v("off_traps"))
		}
		if v("on_mon_cyc_unit") >= v("off_mon_cyc_unit") {
			t.Errorf("%s: offload-on monitor cycles/unit %.1f not below offload-off %.1f",
				app, v("on_mon_cyc_unit"), v("off_mon_cyc_unit"))
		}
		if saved := v("off_mon_cyc_unit") - v("on_mon_cyc_unit"); saved <= 0 {
			t.Errorf("%s: non-positive cycles saved per unit: %.1f", app, saved)
		}
		t.Logf("%s: traps %.0f -> %.0f (%.0f avoided, %.0f nrs), mon cyc/unit %.1f -> %.1f",
			app, v("off_traps"), v("on_traps"), v("avoided"), v("offloaded_nrs"),
			v("off_mon_cyc_unit"), v("on_mon_cyc_unit"))
	}
	out := tab.Markdown()
	for _, app := range workload.Apps {
		if !strings.Contains(out, "| "+app+" |") {
			t.Errorf("render missing app %s:\n%s", app, out)
		}
	}
}

// TestRefineAblation is the acceptance bar for the points-to refinement
// ablation: the refined policies never grow the static surface, the
// refinement never changes benign-workload behaviour (zero violations on
// both sides), and the stats line up.
func TestRefineAblation(t *testing.T) {
	_, m := measure(t, "refine", 10)
	for _, app := range workload.Apps {
		v := func(name string) float64 { return get(t, m, "refine."+app+"."+name) }
		if v("coarse_violations") != 0 || v("refined_violations") != 0 {
			t.Errorf("%s: benign workload flagged: coarse=%.0f refined=%.0f",
				app, v("coarse_violations"), v("refined_violations"))
		}
		if v("edges_refined") > v("edges_coarse") {
			t.Errorf("%s: refinement grew indirect edges %.0f -> %.0f",
				app, v("edges_coarse"), v("edges_refined"))
		}
		if v("pairs_refined") > v("pairs_coarse") {
			t.Errorf("%s: refinement grew allowed pairs %.0f -> %.0f",
				app, v("pairs_coarse"), v("pairs_refined"))
		}
		if v("exact_sites") < 0 || v("escaped_sites") < 0 {
			t.Errorf("%s: negative site stats: exact %.0f escaped %.0f", app, v("exact_sites"), v("escaped_sites"))
		}
		t.Logf("%s: edges %.0f->%.0f, pairs %.0f->%.0f, exact %.0f, escaped %.0f, mon cyc/unit %.1f vs %.1f",
			app, v("edges_coarse"), v("edges_refined"), v("pairs_coarse"), v("pairs_refined"),
			v("exact_sites"), v("escaped_sites"), v("coarse_mon_cyc_unit"), v("refined_mon_cyc_unit"))
	}
}

func TestFilterAblationTreeStrictlyCheaper(t *testing.T) {
	_, m := measure(t, "filter", 10)
	for _, app := range workload.Apps {
		v := func(name string) float64 { return get(t, m, "filter."+app+"."+name) }
		linEval, treeEval := v("linear_insns_eval"), v("tree_insns_eval")
		linCall, treeCall := v("linear_insns_call"), v("tree_insns_call")
		if treeEval <= 0 || linEval <= 0 || treeCall <= 0 || linCall <= 0 {
			t.Fatalf("%s: no BPF instructions recorded: eval %.2f/%.2f call %.2f/%.2f",
				app, linEval, treeEval, linCall, treeCall)
		}
		// The acceptance bar: per-hook BPF instruction count strictly lower
		// under the tree compilation for the ExtendFS set.
		if treeEval >= linEval {
			t.Errorf("%s: tree %.2f insns/eval not below linear %.2f", app, treeEval, linEval)
		}
		if treeCall >= linCall {
			t.Errorf("%s: tree %.2f insns/call not below linear %.2f", app, treeCall, linCall)
		}
	}
}

// TestObsAblation is the acceptance bar for the observability plane: with
// a trace sink and flight recorder attached, every workload measurement is
// bit-identical to the untraced run, and the trace fully covers the traps.
func TestObsAblation(t *testing.T) {
	_, m := measure(t, "obs", 10)
	for _, app := range workload.Apps {
		v := func(name string) float64 { return get(t, m, "obs."+app+"."+name) }
		if v("identical") != 1 {
			t.Errorf("%s: telemetry perturbed the measurement: off %.1f vs on %.1f mon cyc/unit",
				app, v("off_mon_cyc_unit"), v("on_mon_cyc_unit"))
		}
		if v("events") != v("traps") {
			t.Errorf("%s: %.0f trace events for %.0f traps", app, v("events"), v("traps"))
		}
		if v("trace_bytes") == 0 {
			t.Errorf("%s: empty trace", app)
		}
		if v("flight_events") == 0 {
			t.Errorf("%s: flight recorder empty after a traced run", app)
		}
	}
}

// TestBsideAblation is the acceptance bar for the binary-only extraction
// ablation: both regimes complete the benign workload violation-free, the
// extracted policy is never tighter than the traced one on the looseness
// axes (pairs, flow edges), and the monitor numbers are sane.
func TestBsideAblation(t *testing.T) {
	_, m := measure(t, "bside", 10)
	for _, app := range workload.Apps {
		v := func(name string) float64 { return get(t, m, "bside."+app+"."+name) }
		if v("traced_violations") != 0 || v("bside_violations") != 0 {
			t.Errorf("%s: benign workload flagged: traced=%.0f bside=%.0f",
				app, v("traced_violations"), v("bside_violations"))
		}
		if v("pairs_bside") < v("pairs_traced") {
			t.Errorf("%s: extracted policy tighter than traced on allowed pairs: %.0f < %.0f",
				app, v("pairs_bside"), v("pairs_traced"))
		}
		if v("flow_edges_bside") < v("flow_edges_traced") {
			t.Errorf("%s: extracted flow graph smaller than traced: %.0f < %.0f",
				app, v("flow_edges_bside"), v("flow_edges_traced"))
		}
		if v("bside_mon_cyc_unit") <= 0 {
			t.Errorf("%s: b-side run did no monitor work (%.1f cyc/unit)", app, v("bside_mon_cyc_unit"))
		}
		t.Logf("%s: ovh %.2f%%->%.2f%%, pairs %.0f->%.0f, edges %.0f->%.0f, consts %.0f->%.0f (+%.0f unbound)",
			app, v("traced_overhead_pct"), v("bside_overhead_pct"), v("pairs_traced"), v("pairs_bside"),
			v("flow_edges_traced"), v("flow_edges_bside"), v("const_args_traced"), v("const_args_bside"), v("unbound_args"))
	}
}
