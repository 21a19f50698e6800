package bench

import (
	"testing"

	"bastion/internal/fleet"
	"bastion/internal/workload"
)

// TestRunDedupesCompilation: repeated Run calls against one artifact cache
// compile each (app, config) once, and a run from a deduped cache is
// byte-identical to a run from a cold one.
func TestRunDedupesCompilation(t *testing.T) {
	arts := fleet.NewArtifacts()
	spec := RunSpec{App: "nginx", Mitigation: MitFull, Units: 6, Artifacts: arts}

	r1, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if arts.Compiles() != 1 {
		t.Errorf("two monitored runs compiled %d programs, want 1", arts.Compiles())
	}
	if arts.FilterCompiles() != 1 {
		t.Errorf("two monitored runs compiled %d filters, want 1", arts.FilterCompiles())
	}
	if r1.Workload != r2.Workload {
		t.Errorf("deduped runs diverged: %+v vs %+v", r1.Workload, r2.Workload)
	}

	cold, err := Run(RunSpec{App: "nginx", Mitigation: MitFull, Units: 6, Artifacts: fleet.NewArtifacts()})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Workload != cold.Workload {
		t.Errorf("warm-cache run %+v != cold-cache run %+v", r1.Workload, cold.Workload)
	}

	// Different filter-relevant config on the same cache adds exactly one
	// more filter compilation, not a program compilation.
	spec.Mitigation.Monitor.TreeFilter = true
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	if arts.Compiles() != 1 || arts.FilterCompiles() != 2 {
		t.Errorf("after tree-filter run: %d compiles / %d filter compiles, want 1/2",
			arts.Compiles(), arts.FilterCompiles())
	}

	// Baseline (vanilla) runs share the raw program too.
	base := RunSpec{App: "nginx", Mitigation: MitVanilla, Units: 6, Artifacts: arts}
	if _, err := Run(base); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(base); err != nil {
		t.Fatal(err)
	}
	if arts.Compiles() != 2 {
		t.Errorf("vanilla runs compiled %d programs total, want 2 (one raw + one instrumented)", arts.Compiles())
	}
}

// TestFleetScalingAmortization: the ISSUE's acceptance bar — with shared
// artifacts, per-tenant setup cost at 16+ tenants is strictly below the
// 1-tenant case, while the per-tenant regime never amortizes.
func TestFleetScalingAmortization(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling ablation skipped in -short")
	}
	tab, m := measure(t, "fleet", 4)
	if len(tab.Rows) != len(FleetTenantCounts) {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), len(FleetTenantCounts))
	}
	perTenant := func(tenants int, regime string) float64 {
		return get(t, m, fleetStem(tenants)+regime+"_compiles") / float64(tenants)
	}
	for _, tenants := range FleetTenantCounts {
		if tenants < 16 {
			continue
		}
		if got, one := perTenant(tenants, "shared"), perTenant(1, "shared"); got >= one {
			t.Errorf("%d tenants: shared setup %.3f compiles/tenant not below 1-tenant %.3f",
				tenants, got, one)
		}
		if got := perTenant(tenants, "per_tenant"); got < 1 {
			t.Errorf("%d tenants: per-tenant regime %.3f compiles/tenant, want ≥ 1", tenants, got)
		}
	}
	for _, tenants := range FleetTenantCounts {
		if get(t, m, fleetStem(tenants)+"throughput") <= 0 {
			t.Errorf("%d tenants: non-positive fleet throughput", tenants)
		}
		if n := get(t, m, fleetStem(tenants)+"shared_compiles"); n > float64(len(workload.Apps)) {
			t.Errorf("%d tenants: shared regime compiled %.0f programs, want ≤ %d", tenants, n, len(workload.Apps))
		}
	}
	t.Logf("\n%s", tab.Markdown())
}
