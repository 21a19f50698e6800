package fleet

import (
	"fmt"
	"strings"
	"testing"

	"bastion/internal/obs"
)

// tracedConfig is a small mixed fleet with the telemetry plane on and one
// malicious nginx tenant, so traces, merged metrics, and a flight dump all
// have content.
func tracedConfig() Config {
	cfg := DefaultConfig(4, 4)
	cfg.Seed = 7
	cfg.Trace = true
	cfg.FlightN = 8
	cfg.Malicious = map[int]string{0: "direct-aocr-nginx1"}
	return cfg
}

// telemetrySnapshot flattens everything the telemetry plane produced into
// one byte string for cross-run comparison.
func telemetrySnapshot(t *testing.T, r *Report) string {
	t.Helper()
	var b strings.Builder
	for i := range r.Results {
		tr := &r.Results[i]
		b.WriteString("tenant ")
		b.WriteString(tr.App)
		b.WriteByte('\n')
		for j := range tr.Events {
			b.WriteString(tr.Events[j].JSON())
			b.WriteByte('\n')
		}
		if tr.Metrics != nil {
			b.WriteString(tr.Metrics.Render())
		}
		b.WriteString(tr.Flight)
	}
	b.WriteString(r.MergedMetrics().Render())
	b.WriteString(r.MergedMetrics().RenderOpenMetrics())
	b.WriteString(r.Markdown())
	return b.String()
}

// TestFleetTraceDeterminism: two traced runs with the same seed produce
// byte-identical per-tenant traces, metrics snapshots, flight dumps, and
// reports — concurrently or serially.
func TestFleetTraceDeterminism(t *testing.T) {
	cfg := tracedConfig()
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := telemetrySnapshot(t, r1), telemetrySnapshot(t, r2)
	if s1 != s2 {
		t.Fatalf("same seed, different telemetry:\n%s\n---\n%s", s1, s2)
	}

	det := cfg
	det.Deterministic = true
	r3, err := Run(det)
	if err != nil {
		t.Fatal(err)
	}
	if s3 := telemetrySnapshot(t, r3); s1 != s3 {
		t.Fatalf("concurrent vs deterministic telemetry differs:\n%s\n---\n%s", s1, s3)
	}
}

// TestFleetTraceContent: the traced fleet's events are tenant-stamped and
// contiguously sequenced across incarnations, the merged registry accounts
// for every event, the malicious tenants keep flight dumps whose final
// entry is the violating trap, and every flight-dump line carries its
// tenant's stamp (tenant 3 attacks too, so a missing stamp, which reads
// as tenant 0, cannot pass).
func TestFleetTraceContent(t *testing.T) {
	cfg := tracedConfig()
	cfg.Malicious[3] = cfg.Malicious[0]
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	total := 0
	for i := range rep.Results {
		tr := &rep.Results[i]
		if len(tr.Events) == 0 {
			t.Fatalf("tenant %d (%s) produced no trace events", tr.Index, tr.App)
		}
		for j := range tr.Events {
			ev := &tr.Events[j]
			if ev.Tenant != tr.Index {
				t.Fatalf("tenant %d event %d stamped for tenant %d", tr.Index, j, ev.Tenant)
			}
			if ev.Seq != uint64(j) {
				t.Fatalf("tenant %d event %d has seq %d; incarnation re-stamping broken", tr.Index, j, ev.Seq)
			}
			if ev.Cycles.Total() != ev.End-ev.Start {
				t.Fatalf("tenant %d event %d breakdown %d != elapsed %d",
					tr.Index, j, ev.Cycles.Total(), ev.End-ev.Start)
			}
		}
		if tr.Metrics == nil {
			t.Fatalf("tenant %d has no metrics registry", tr.Index)
		}
		if tr.Flight != "" {
			stamp := fmt.Sprintf(`"tenant":%d,`, tr.Index)
			for _, line := range strings.Split(strings.TrimSuffix(tr.Flight, "\n"), "\n") {
				if !strings.Contains(line, stamp) {
					t.Fatalf("tenant %d flight-dump line lacks its tenant stamp:\n%s", tr.Index, line)
				}
			}
		}
		total += len(tr.Events)
	}
	if got := rep.TotalEvents(); got != total {
		t.Fatalf("TotalEvents %d != summed %d", got, total)
	}

	merged := rep.MergedMetrics()
	if hooks := merged.Counter("monitor_hooks_total").Value(); hooks != uint64(total) {
		t.Fatalf("merged monitor_hooks_total %d != %d trace events", hooks, total)
	}

	for _, i := range []int{0, 3} {
		mal := &rep.Results[i]
		if mal.Attack == nil {
			t.Fatalf("malicious tenant %d recorded no attack outcome", i)
		}
		if mal.Attack.Completed {
			t.Fatalf("tenant %d: attack completed: %+v", i, mal.Attack)
		}
		if len(mal.Violations) == 0 {
			t.Fatalf("blocked attack left no violations on malicious tenant %d", i)
		}
		if mal.Flight == "" {
			t.Fatalf("malicious tenant %d kept no flight-recorder dump", i)
		}
		lines := strings.Split(strings.TrimSuffix(mal.Flight, "\n"), "\n")
		if last := lines[len(lines)-1]; !strings.Contains(last, `"violation":`) {
			t.Fatalf("tenant %d: flight dump does not end with the violating trap:\n%s", i, mal.Flight)
		}
	}

	benign := &rep.Results[1]
	if benign.Flight != "" {
		t.Fatalf("benign tenant %s kept a flight dump:\n%s", benign.App, benign.Flight)
	}

	if !strings.Contains(rep.Markdown(), "### Merged metrics") {
		t.Fatal("traced report lacks merged-metrics section")
	}

	var zero obs.CycleBreakdown
	if zero.Total() != 0 {
		t.Fatal("zero breakdown total non-zero")
	}
}

// TestFleetTracingInvisible: turning the telemetry plane on changes no
// tenant-visible result — units, bytes, every cycle account, and
// violations are identical with tracing off and on.
func TestFleetTracingInvisible(t *testing.T) {
	off := tracedConfig()
	off.Trace = false
	off.FlightN = 0
	on := tracedConfig()

	rOff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	rOn, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rOff.Results {
		a, b := &rOff.Results[i], &rOn.Results[i]
		if a.Units != b.Units || a.Bytes != b.Bytes {
			t.Errorf("tenant %d progress differs traced: %d/%d vs %d/%d", i, a.Units, a.Bytes, b.Units, b.Bytes)
		}
		if a.SetupCycles != b.SetupCycles || a.InitCycles != b.InitCycles ||
			a.TotalCycles != b.TotalCycles || a.MonitorCycles != b.MonitorCycles ||
			a.BackoffCycles != b.BackoffCycles || a.Traps != b.Traps {
			t.Errorf("tenant %d cycle accounts differ with tracing on", i)
		}
		if a.FlowChecks != b.FlowChecks {
			t.Errorf("tenant %d flow checks differ traced: %d vs %d", i, a.FlowChecks, b.FlowChecks)
		}
		if len(a.Violations) != len(b.Violations) {
			t.Errorf("tenant %d violations differ: %v vs %v", i, a.Violations, b.Violations)
		}
	}
}

// TestFleetKilledIncarnationDrained: a security kill mid-incarnation must
// not lose that incarnation's monitor evidence — the violation that caused
// the kill appears in the tenant result.
func TestFleetKilledIncarnationDrained(t *testing.T) {
	cfg := tracedConfig()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mal := &rep.Results[0]
	if mal.Kills == 0 {
		t.Skipf("attack %q did not kill; drain path not exercised", cfg.Malicious[0])
	}
	if len(mal.Violations) == 0 && mal.KilledBy == "monitor" {
		t.Fatal("monitor kill recorded no violations: killed incarnation was not drained")
	}
}
