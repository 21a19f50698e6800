package fleet

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"bastion/internal/obs"
)

// sloConfig is tracedConfig with generous budgets layered on: a sharded
// fleet where every budget is evaluated but nothing should breach.
func sloConfig() Config {
	cfg := tracedConfig()
	cfg.Shards = 2
	cfg.SLO = &SLOConfig{
		TrapP99Cycles:      1 << 20,
		ViolationsPerKUnit: 1000,
		RejectsPerTenant:   100,
	}
	return cfg
}

func TestSLOConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		slo  SLOConfig
		ok   bool
	}{
		{"zero value", SLOConfig{}, true},
		{"full budgets", SLOConfig{TrapP99Cycles: 4000, ViolationsPerKUnit: 1, RejectsPerTenant: 0.5, WarnFraction: 0.9, AnomalyFactor: 8, AnomalyWarmup: 4}, true},
		{"disabled budgets", SLOConfig{ViolationsPerKUnit: -1, RejectsPerTenant: -1}, true},
		{"negative warn", SLOConfig{WarnFraction: -0.1}, false},
		{"warn at one", SLOConfig{WarnFraction: 1}, false},
		{"anomaly factor one", SLOConfig{AnomalyFactor: 1}, false},
		{"negative anomaly factor", SLOConfig{AnomalyFactor: -2}, false},
		{"negative warmup", SLOConfig{AnomalyWarmup: -1}, false},
	}
	for _, tc := range cases {
		err := tc.slo.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}

	// Config.Validate must reject a bad SLO block.
	cfg := DefaultConfig(2, 2)
	cfg.SLO = &SLOConfig{WarnFraction: -1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("fleet config with invalid SLO accepted")
	}
}

// syntheticScope builds a Report + registry whose trap histogram and
// tenant counters are fully controlled, so health math is checked against
// hand-computed numbers.
func syntheticScope(trapCycles []uint64, violations, rejects, units int) (*Report, *obs.Registry) {
	reg := obs.NewRegistry()
	h := reg.Histogram("monitor_trap_cycles", obs.CycleBuckets)
	for _, c := range trapCycles {
		h.Observe(c)
	}
	rep := &Report{Results: make([]TenantResult, 1)}
	tr := &rep.Results[0]
	tr.Units = units
	tr.AdmitRejects = rejects
	for i := 0; i < violations; i++ {
		tr.Violations = append(tr.Violations, "ct:test")
	}
	return rep, reg
}

// TestSLOHealthMath pins the penalty model: utilization at or below the
// warn fraction is free, the warn band ramps 0→25, a breach costs 25–50
// and names the budget, and the overflow quantile always breaches.
func TestSLOHealthMath(t *testing.T) {
	low := make([]uint64, 100) // p99 = 500 bucket
	for i := range low {
		low[i] = 100
	}

	t.Run("all pass", func(t *testing.T) {
		rep, reg := syntheticScope(low, 0, 0, 10)
		cfg := &SLOConfig{TrapP99Cycles: 1000, ViolationsPerKUnit: 1, RejectsPerTenant: 1}
		row := rep.evaluateScope(cfg, 0, []int{0}, reg)
		if row.Status != SLOPass || row.Health != 100 || len(row.Breached) != 0 {
			t.Fatalf("clean scope scored %+v", row)
		}
		if row.P50 != 500 || row.P99 != 500 {
			t.Fatalf("quantiles %d/%d, want 500/500", row.P50, row.P99)
		}
	})

	t.Run("warn band", func(t *testing.T) {
		// p99 = 500 against a 556 budget: utilization ≈ 0.899, warn 0.8 →
		// penalty 25·(0.899−0.8)/0.2 ≈ 12.4 → health 88.
		rep, reg := syntheticScope(low, 0, 0, 10)
		cfg := &SLOConfig{TrapP99Cycles: 556, ViolationsPerKUnit: -1, RejectsPerTenant: -1}
		row := rep.evaluateScope(cfg, 0, []int{0}, reg)
		if row.Status != SLOWarn {
			t.Fatalf("status %v, want WARN (p99=%d)", row.Status, row.P99)
		}
		if row.Health != 88 {
			t.Fatalf("health %d, want 88", row.Health)
		}
		if len(row.Breached) != 0 {
			t.Fatalf("warn row lists breaches: %v", row.Breached)
		}
	})

	t.Run("breach", func(t *testing.T) {
		// p99 = 500 against 400: utilization 1.25 → penalty 25+25·0.25 =
		// 31.25 → health 69.
		rep, reg := syntheticScope(low, 0, 0, 10)
		cfg := &SLOConfig{TrapP99Cycles: 400, ViolationsPerKUnit: -1, RejectsPerTenant: -1}
		row := rep.evaluateScope(cfg, 0, []int{0}, reg)
		if row.Status != SLOBreach || row.Health != 69 {
			t.Fatalf("breach scored %+v", row)
		}
		if len(row.Breached) != 1 || row.Breached[0] != "trap_p99" {
			t.Fatalf("breached budgets %v", row.Breached)
		}
	})

	t.Run("zero tolerance violation", func(t *testing.T) {
		rep, reg := syntheticScope(low, 1, 0, 10)
		cfg := &SLOConfig{ViolationsPerKUnit: 0, RejectsPerTenant: -1}
		row := rep.evaluateScope(cfg, 0, []int{0}, reg)
		if row.Status != SLOBreach || row.Health != 50 {
			t.Fatalf("zero-tolerance violation scored %+v (want BREACH, health 50)", row)
		}
		if len(row.Breached) != 1 || row.Breached[0] != "violations" {
			t.Fatalf("breached budgets %v", row.Breached)
		}
	})

	t.Run("overflow p99 breaches", func(t *testing.T) {
		huge := []uint64{1 << 30, 1 << 30, 1 << 30}
		rep, reg := syntheticScope(huge, 0, 0, 10)
		cfg := &SLOConfig{TrapP99Cycles: 1 << 40, ViolationsPerKUnit: -1, RejectsPerTenant: -1}
		row := rep.evaluateScope(cfg, 0, []int{0}, reg)
		if row.P99 != obs.QuantileOverflow {
			t.Fatalf("p99 %d, want overflow sentinel", row.P99)
		}
		if row.Status != SLOBreach || row.Health != 50 {
			t.Fatalf("overflow p99 scored %+v (want BREACH, health 50)", row)
		}
	})

	t.Run("three breaches floor at zero", func(t *testing.T) {
		rep, reg := syntheticScope(low, 50, 50, 10)
		cfg := &SLOConfig{TrapP99Cycles: 1, ViolationsPerKUnit: 0.001, RejectsPerTenant: 0.001}
		row := rep.evaluateScope(cfg, 0, []int{0}, reg)
		if row.Status != SLOBreach || row.Health != 0 {
			t.Fatalf("triple breach scored %+v (want health 0)", row)
		}
		if len(row.Breached) != 3 {
			t.Fatalf("breached budgets %v, want all three", row.Breached)
		}
	})

	t.Run("rate helpers", func(t *testing.T) {
		row := SLORow{Violations: 2, Units: 500, Rejects: 3, Tenants: 4}
		if got := row.ViolationsPerKUnit(); got != 4 {
			t.Fatalf("viol/ku %v, want 4", got)
		}
		if got := row.RejectsPerTenant(); got != 0.75 {
			t.Fatalf("rejects/tenant %v, want 0.75", got)
		}
		empty := SLORow{Violations: 1}
		if !math.IsInf(empty.ViolationsPerKUnit(), 1) {
			t.Fatal("violations with zero units must rate as +Inf")
		}
	})
}

// TestFleetSLOReport: a sharded SLO run renders one row per shard plus a
// fleet-wide row, the evaluation is byte-deterministic serial vs
// concurrent, and a run without SLO has neither rows nor section.
func TestFleetSLOReport(t *testing.T) {
	cfg := sloConfig()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rows := rep.EvaluateSLO()
	if len(rows) != cfg.Shards+1 {
		t.Fatalf("%d SLO rows for %d shards, want %d", len(rows), cfg.Shards, cfg.Shards+1)
	}
	fleetRow := rows[len(rows)-1]
	if fleetRow.Shard != -1 {
		t.Fatalf("last row is shard %d, want fleet-wide (-1)", fleetRow.Shard)
	}
	tenants, units := 0, uint64(0)
	for _, row := range rows[:len(rows)-1] {
		tenants += row.Tenants
		units += row.Units
	}
	if tenants != fleetRow.Tenants || units != fleetRow.Units {
		t.Fatalf("shard rows sum to %d tenants / %d units, fleet row has %d / %d",
			tenants, units, fleetRow.Tenants, fleetRow.Units)
	}
	// The malicious tenant's blocked attack leaves violations, so the
	// fleet-wide row must count them.
	if fleetRow.Violations == 0 {
		t.Fatal("fleet row counts no violations despite the injected attack")
	}

	md := rep.Markdown()
	if !strings.Contains(md, "### SLO") {
		t.Fatal("SLO run report lacks ### SLO section")
	}
	if !strings.Contains(md, "| fleet |") || !strings.Contains(md, "| shard 0 |") {
		t.Fatalf("SLO table missing scope rows:\n%s", md)
	}

	det := cfg
	det.Deterministic = true
	rep2, err := Run(det)
	if err != nil {
		t.Fatal(err)
	}
	if md2 := rep2.Markdown(); md2 != md {
		t.Fatalf("SLO report differs serial vs concurrent:\n%s\n---\n%s", md, md2)
	}

	plain := cfg
	plain.SLO = nil
	rp, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if rp.EvaluateSLO() != nil {
		t.Fatal("EvaluateSLO non-nil without SLO config")
	}
	if strings.Contains(rp.Markdown(), "### SLO") {
		t.Fatal("report has SLO section without SLO config")
	}
}

// TestFleetSLOInvisible: declaring SLO budgets changes nothing a tenant
// can see — results, traces, and metrics are byte-identical to the same
// run with only Trace on. SLO evaluation is strictly read-only.
func TestFleetSLOInvisible(t *testing.T) {
	traced := sloConfig()
	traced.SLO = nil // tracedConfig already has Trace on
	slo := sloConfig()

	rt, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(slo)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rt.Results {
		a, b := &rt.Results[i], &rs.Results[i]
		if a.Units != b.Units || a.TotalCycles != b.TotalCycles || a.MonitorCycles != b.MonitorCycles ||
			a.Traps != b.Traps || a.Shard != b.Shard || a.AdmitRejects != b.AdmitRejects {
			t.Errorf("tenant %d diverges with SLO on", i)
		}
		if len(a.Violations) != len(b.Violations) {
			t.Errorf("tenant %d violations differ with SLO on", i)
		}
		if len(a.Events) != len(b.Events) {
			t.Errorf("tenant %d trace length differs with SLO on", i)
			continue
		}
		for j := range a.Events {
			if a.Events[j].JSON() != b.Events[j].JSON() {
				t.Errorf("tenant %d event %d differs with SLO on", i, j)
				break
			}
		}
		if a.Metrics.Render() != b.Metrics.Render() {
			t.Errorf("tenant %d metrics differ with SLO on", i)
		}
	}
	if rt.MergedMetrics().RenderOpenMetrics() != rs.MergedMetrics().RenderOpenMetrics() {
		t.Error("merged OpenMetrics differ with SLO on")
	}
}

// TestSLOImpliesTrace: Run auto-enables the telemetry plane whenever SLO
// is declared, so evaluation always has histograms and traces to read.
func TestSLOImpliesTrace(t *testing.T) {
	cfg := DefaultConfig(2, 2)
	cfg.Seed = 3
	cfg.SLO = &SLOConfig{ViolationsPerKUnit: -1, RejectsPerTenant: -1}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cfg.Trace {
		t.Fatal("SLO run did not record Trace in effective config")
	}
	for i := range rep.Results {
		if rep.Results[i].Metrics == nil {
			t.Fatalf("tenant %d has no metrics despite SLO implying trace", i)
		}
	}
	// An unsharded fleet is one shard: its row and the fleet-wide row
	// score the same tenants from the same histogram.
	rows := rep.EvaluateSLO()
	if len(rows) != 2 || rows[0].Shard != 0 || rows[1].Shard != -1 {
		t.Fatalf("unsharded fleet rows %+v, want shard 0 then fleet-wide", rows)
	}
	if rows[1].P99 == 0 {
		t.Fatal("fleet-wide p99 is zero; trap histogram not populated")
	}
	shard0, fleetRow := rows[0], rows[1]
	shard0.Shard = -1
	if !reflect.DeepEqual(shard0, fleetRow) {
		t.Fatalf("shard 0 row %+v differs from fleet row %+v", rows[0], fleetRow)
	}
}
