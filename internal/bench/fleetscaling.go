package bench

import (
	"fmt"
	"reflect"

	"bastion/internal/fleet"
	"bastion/internal/obs/perf"
	"bastion/internal/workload"
)

// FleetTenantCounts is the fleet scaling ablation's tenant axis.
var FleetTenantCounts = []int{1, 4, 16, 64}

// fleetStem builds a fixed-width tenant-count stem (t001, t064) so the
// sorted artifact keeps fleet rows in numeric order.
func fleetStem(tenants int) string {
	return fmt.Sprintf("fleet.t%03d.", tenants)
}

// fleetScaling measures fleet throughput and setup cost across
// FleetTenantCounts, with the workload mix assigned round-robin from workload.Apps.
// Each point runs twice — once sharing one compilation per app, once
// compiling per tenant — and any divergence in tenant-visible results
// between the two regimes is an error, so the table is also a continuous
// equivalence check. Compiles per tenant is the amortized setup cost: with
// sharing it falls toward apps/tenants as the fleet grows; without it
// stays pinned at one.
func fleetScaling(units int) (*Table, error) {
	t := &Table{
		Heading: "Fleet scaling — shared vs per-tenant compilation",
		Note:    "Multi-tenant supervisor (internal/fleet) running the three apps round-robin under full protection. Tenant-visible results are asserted identical across the two compilation regimes; only setup cost differs.",
		Header:  []string{"tenants", "shared compiles (/tenant)", "per-tenant compiles (/tenant)", "units/s", "mon cyc/unit"},
	}
	for _, tenants := range FleetTenantCounts {
		cfg := fleet.DefaultConfig(tenants, units, workload.Apps...)
		cfg.Seed = 42

		shared, err := fleet.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%d tenants (shared): %w", tenants, err)
		}
		cfg.ShareArtifacts = false
		private, err := fleet.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%d tenants (per-tenant): %w", tenants, err)
		}
		if !reflect.DeepEqual(shared.Results, private.Results) {
			return nil, fmt.Errorf("%d tenants: shared and per-tenant compilation diverged", tenants)
		}

		m := fleetStem(tenants)
		perTenant := func(compiles int) Value { return show(float64(compiles) / float64(tenants)) }
		t.Rows = append(t.Rows, Row{
			Cells: []Cell{
				cell("%d", show(tenants)),
				cell("%d (%.3f)", count(m+"shared_compiles", shared.Compiles, perf.Exact), perTenant(shared.Compiles)),
				cell("%d (%.3f)", count(m+"per_tenant_compiles", private.Compiles, perf.Exact), perTenant(private.Compiles)),
				cell("%.0f", num(m+"throughput", shared.Throughput(), perf.HigherIsBetter)),
				cell("%.0f", num(m+"mon_cyc_unit", shared.MonitorCyclesPerUnit(), perf.LowerIsBetter)),
			},
			Hidden: []Value{
				count(m+"shared_filters", shared.FilterCompiles, perf.Exact),
				count(m+"per_tenant_filters", private.FilterCompiles, perf.Exact),
			},
		})
	}
	return t, nil
}
