package monitor_test

// Telemetry-layer tests: tracing must be observationally invisible to
// the simulation (identical verdicts AND identical cycle accounts), the
// decision trace must account for every trap cycle, the flight recorder
// must hand every violation its syscall history, and the nil-sink hot
// path must stay allocation-free.

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bastion/internal/attacks"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/obs"
	"bastion/internal/vm"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tracedRun executes the victim's main under the given config (plus an
// optional sink) and returns the monitor and the final clock value.
func tracedRun(t *testing.T, sink obs.Sink, flightN int) (*monitor.Monitor, uint64) {
	t.Helper()
	cfg := monitor.DefaultConfig()
	cfg.Sink = sink
	cfg.FlightN = flightN
	prot := launch(t, cfg)
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	// do_exec's execve exercises the pointee walk; the guest "replacing
	// itself" surfaces as an exit, which is fine here.
	if _, err := prot.Machine.CallFunction("do_exec"); err != nil {
		var xe *vm.ExitError
		if !errors.As(err, &xe) {
			t.Fatalf("do_exec: %v", err)
		}
	}
	return prot.Monitor, prot.Kernel.Clock.Cycles
}

// TestTracingIsCycleNeutral runs the same workload untraced, traced, and
// traced-with-recorder: verdicts, counters, and the shared clock must be
// identical in all three — telemetry reads the clock, never advances it.
func TestTracingIsCycleNeutral(t *testing.T) {
	monOff, cycOff := tracedRun(t, nil, 0)
	sink := &obs.BufferSink{}
	monOn, cycOn := tracedRun(t, sink, 16)
	if cycOff != cycOn {
		t.Fatalf("tracing changed the clock: %d vs %d cycles", cycOff, cycOn)
	}
	if monOff.Hooks != monOn.Hooks || len(monOff.Violations) != len(monOn.Violations) {
		t.Fatalf("tracing changed enforcement: hooks %d/%d violations %d/%d",
			monOff.Hooks, monOn.Hooks, len(monOff.Violations), len(monOn.Violations))
	}
	if uint64(len(sink.Events)) != monOn.Hooks {
		t.Fatalf("trace has %d events for %d hooks", len(sink.Events), monOn.Hooks)
	}
}

// TestTraceEventsAccountForEveryCycle checks the decision trace's
// internal consistency: events are sequential, intervals nest inside the
// run, and each breakdown sums exactly to End-Start.
func TestTraceEventsAccountForEveryCycle(t *testing.T) {
	sink := &obs.BufferSink{}
	mon, _ := tracedRun(t, sink, 0)
	var prevEnd uint64
	for i := range sink.Events {
		ev := &sink.Events[i]
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Start < prevEnd || ev.End < ev.Start {
			t.Fatalf("event %d interval [%d,%d] not ordered after %d", i, ev.Start, ev.End, prevEnd)
		}
		prevEnd = ev.End
		if got, want := ev.Cycles.Total(), ev.End-ev.Start; got != want {
			t.Fatalf("event %d (%s): breakdown sums to %d, interval is %d", i, ev.Name, got, want)
		}
		if ev.Name == "" || ev.Name != kernel.Name(ev.Nr) {
			t.Fatalf("event %d: name %q does not match nr %d", i, ev.Name, ev.Nr)
		}
	}
	// The benign victim passes everything: no violation fields, and the
	// execve trap must carry pointee bytes ("/bin/app" + NUL).
	var sawPointee bool
	for i := range sink.Events {
		ev := &sink.Events[i]
		if ev.Violated() || ev.Violation != "" {
			t.Fatalf("benign run traced a violation: %s", ev.JSON())
		}
		if ev.Nr == kernel.SysExecve && ev.PointeeBytes == 9 {
			sawPointee = true
		}
	}
	if !sawPointee {
		t.Fatalf("execve trap did not attribute pointee bytes; events: %d, mon hooks %d", len(sink.Events), mon.Hooks)
	}
}

// TestTraceByteDeterminism renders two identical traced runs to JSONL and
// Chrome trace documents and requires byte equality, and the same for the
// metrics text and OpenMetrics renderings.
func TestTraceByteDeterminism(t *testing.T) {
	render := func() (string, string, string, string) {
		sink := &obs.BufferSink{}
		mon, _ := tracedRun(t, sink, 0)
		var j, c strings.Builder
		if err := obs.WriteJSONL(&j, sink.Events); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteChrome(&c, sink.Events); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String(), mon.Metrics.RenderOpenMetrics(), mon.Metrics.Render()
	}
	j1, c1, s1, r1 := render()
	j2, c2, s2, r2 := render()
	if j1 != j2 {
		t.Error("JSONL trace not byte-identical across identical runs")
	}
	if c1 != c2 {
		t.Error("Chrome trace not byte-identical across identical runs")
	}
	if s1 != s2 || r1 != r2 {
		t.Error("metrics rendering not byte-identical across identical runs")
	}
}

// TestMonitorMetricsGolden pins the monitor registry's names and values:
// the traced victim run's text and OpenMetrics renderings.
func TestMonitorMetricsGolden(t *testing.T) {
	mon, _ := tracedRun(t, &obs.BufferSink{}, 16)
	checkGolden(t, "metrics.txt.golden", mon.Metrics.Render())
	checkGolden(t, "metrics.om.golden", mon.Metrics.RenderOpenMetrics())
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestFlightRecorderHistoryOnViolation corrupts the mprotect argument in
// report-only mode with the recorder on: every recorded violation must
// carry the syscall history, oldest first, with the violating trap last.
func TestFlightRecorderHistoryOnViolation(t *testing.T) {
	cfg := monitor.DefaultConfig()
	cfg.ReportOnly = true
	cfg.FlightN = 8
	prot := launch(t, cfg)
	if _, err := prot.Machine.CallFunction("setup"); err != nil {
		t.Fatal(err)
	}
	if err := prot.Machine.HookFunc("mprotect", 0, func(m *vm.Machine) error {
		addr, err := m.SlotAddr("p2")
		if err != nil {
			return err
		}
		return m.Mem.WriteUint(addr, 7, 8)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction("do_protect"); err != nil {
		t.Fatal(err)
	}
	mon := prot.Monitor
	if len(mon.Violations) == 0 {
		t.Fatal("no violation recorded")
	}
	for _, v := range mon.Violations {
		if len(v.History) == 0 {
			t.Fatalf("violation %q has no flight history", v.Reason)
		}
		last := v.History[len(v.History)-1]
		if last.Violation == "" || !strings.Contains(last.Violation, v.Reason) {
			t.Fatalf("history's final event is not the violating trap: %s", last.JSON())
		}
		if last.Nr != kernel.SysMprotect {
			t.Fatalf("violating trap is %s, want mprotect", last.Name)
		}
		// The setup phase's mmap trap must be part of the history.
		if v.History[0].Nr != kernel.SysMmap {
			t.Fatalf("history does not start at the mmap trap: %s", v.History[0].JSON())
		}
	}
	if mon.Recorder == nil || mon.Recorder.DumpJSONL() == "" {
		t.Fatal("flight recorder empty after violation")
	}
}

// TestMonitorReportViolationGolden pins the symmetric violation section:
// a count header followed by the list (the asymmetry fixed alongside the
// telemetry work — previously only the empty case had a summary line).
func TestMonitorReportViolationGolden(t *testing.T) {
	cfg := monitor.DefaultConfig()
	cfg.ReportOnly = true
	prot := launch(t, cfg)
	if _, err := prot.Machine.CallFunction("setup"); err != nil {
		t.Fatal(err)
	}
	if err := prot.Machine.HookFunc("mprotect", 0, func(m *vm.Machine) error {
		addr, err := m.SlotAddr("p2")
		if err != nil {
			return err
		}
		return m.Mem.WriteUint(addr, 7, 8)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction("do_protect"); err != nil {
		t.Fatal(err)
	}
	rep := prot.Monitor.Report()
	if !strings.Contains(rep, "1 violations\n") {
		t.Errorf("report missing violation count header:\n%s", rep)
	}
	checkGolden(t, "report_violation.golden", rep)
}

// TestTrapNoAllocsWithoutSink replays the latched mprotect trap through
// the full check pipeline: with a nil sink and no recorder, Trap must
// not allocate (the unwind scratch and reused event storage carry it).
func TestTrapNoAllocsWithoutSink(t *testing.T) {
	prot := launch(t, monitor.DefaultConfig())
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatal(err)
	}
	mon, proc := prot.Monitor, prot.Proc
	// The latched SysRegs are main's final trap (mprotect); its stack
	// frames are still intact in guest memory, so Trap replays cleanly.
	if err := mon.Trap(proc); err != nil {
		t.Fatalf("replayed trap failed: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := mon.Trap(proc); err != nil {
			t.Fatalf("replayed trap failed: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-sink Trap allocates %.1f objects per call", allocs)
	}
}

// TestDifferentialTracingInvisible replays the full Table 6 attack
// catalog across the monitor-configuration matrix twice — tracing off
// and tracing on (sink + flight recorder) — and requires the observable
// outcome of every single run to be identical. Every traced event, the
// early returns of violating and fetch-only traps included, must account
// for all of its cycles and carry a violation text exactly when a context
// rejected it.
func TestDifferentialTracingInvisible(t *testing.T) {
	var events int
	for _, s := range attacks.Catalog() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			for _, c := range differentialCases {
				d := attacks.Defense{Name: "trace/" + c.name, Monitor: core.Enforcing(c.contexts)}
				d.Monitor.Mode = c.mode
				off, offEnv := observe(t, s, d)
				sink := &obs.BufferSink{}
				d.Monitor.Sink = sink
				d.Monitor.FlightN = 32
				on, onEnv := observe(t, s, d)
				if !off.equal(on) {
					t.Errorf("%s: tracing changed the observable outcome\n  off: %s\n  on:  %s",
						c.name, off, on)
				}
				offCyc := offEnv.P.Kernel.Clock.Cycles
				onCyc := onEnv.P.Kernel.Clock.Cycles
				if offCyc != onCyc {
					t.Errorf("%s: tracing changed the cycle account: %d vs %d", c.name, offCyc, onCyc)
				}
				for i := range sink.Events {
					ev := &sink.Events[i]
					if ev.Cycles.Total() != ev.End-ev.Start {
						t.Errorf("%s: event %d (%s): breakdown sums to %d, interval is %d",
							c.name, i, ev.Name, ev.Cycles.Total(), ev.End-ev.Start)
					}
					if ev.Violated() != (ev.Violation != "") {
						t.Errorf("%s: event %d (%s): verdicts and violation text disagree: %s",
							c.name, i, ev.Name, ev.JSON())
					}
				}
				events += len(sink.Events)
			}
		})
	}
	if events == 0 {
		t.Fatal("traced attack matrix produced no events")
	}
}

// BenchmarkTrap measures the monitor's per-trap cost on the replayed
// mprotect trap; ReportAllocs pins the nil-sink zero-allocation claim in
// the benchmark output.
func BenchmarkTrap(b *testing.B) {
	prot := launch(b, monitor.DefaultConfig())
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		b.Fatal(err)
	}
	mon, proc := prot.Monitor, prot.Proc
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mon.Trap(proc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrapTraced is the traced counterpart: same replayed trap with
// a buffer sink attached, for comparing the tracing overhead.
func BenchmarkTrapTraced(b *testing.B) {
	cfg := monitor.DefaultConfig()
	sink := &obs.BufferSink{}
	cfg.Sink = sink
	prot := launch(b, cfg)
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		b.Fatal(err)
	}
	mon, proc := prot.Monitor, prot.Proc
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Events = sink.Events[:0]
		if err := mon.Trap(proc); err != nil {
			b.Fatal(err)
		}
	}
}
