package bench

import (
	"fmt"
	"reflect"
	"strings"

	"bastion/internal/fleet"
)

// FleetTenantCounts is the fleet scaling ablation's tenant axis.
var FleetTenantCounts = []int{1, 4, 16, 64}

// FleetScalingRow is one tenant-count point of the scaling ablation, run
// twice — once compiling artifacts per tenant, once sharing one
// compilation per app — with everything but setup cost asserted identical.
type FleetScalingRow struct {
	Tenants int

	// Setup cost, the sharing axis: program + seccomp-filter compilations
	// performed under each regime.
	SharedCompiles    int
	SharedFilters     int
	PerTenantCompiles int
	PerTenantFilters  int

	// Fleet-wide measurements (identical across both regimes; enforced).
	Throughput float64 // units per simulated second
	MonPerUnit float64 // monitor cycles per unit
}

// SharedCompilesPerTenant is the amortized setup-cost measure: with
// sharing it falls toward apps/tenants as the fleet grows; without it
// stays pinned at one compilation per tenant.
func (r FleetScalingRow) SharedCompilesPerTenant() float64 {
	return float64(r.SharedCompiles) / float64(r.Tenants)
}

// PerTenantCompilesPerTenant is the non-shared baseline's per-tenant cost.
func (r FleetScalingRow) PerTenantCompilesPerTenant() float64 {
	return float64(r.PerTenantCompiles) / float64(r.Tenants)
}

// FleetScalingResult is the full scaling ablation.
type FleetScalingResult struct {
	Apps  []string
	Units int // per tenant
	Rows  []FleetScalingRow
}

// FleetScaling measures fleet throughput and setup cost across
// FleetTenantCounts, with the workload mix assigned round-robin from Apps.
// Each point runs under both compilation regimes; any divergence in
// tenant-visible results between them is an error, so the rendered table
// is also a continuous equivalence check.
func FleetScaling(units int) (*FleetScalingResult, error) {
	res := &FleetScalingResult{Apps: Apps, Units: units}
	for _, tenants := range FleetTenantCounts {
		cfg := fleet.DefaultConfig(tenants, units, Apps...)
		cfg.Seed = 42

		shared, err := fleet.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet scaling %d tenants (shared): %w", tenants, err)
		}
		cfg.ShareArtifacts = false
		private, err := fleet.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet scaling %d tenants (per-tenant): %w", tenants, err)
		}
		if !reflect.DeepEqual(shared.Results, private.Results) {
			return nil, fmt.Errorf("fleet scaling %d tenants: shared and per-tenant compilation diverged", tenants)
		}

		res.Rows = append(res.Rows, FleetScalingRow{
			Tenants:           tenants,
			SharedCompiles:    shared.Compiles,
			SharedFilters:     shared.FilterCompiles,
			PerTenantCompiles: private.Compiles,
			PerTenantFilters:  private.FilterCompiles,
			Throughput:        shared.Throughput(),
			MonPerUnit:        shared.MonitorCyclesPerUnit(),
		})
	}
	return res, nil
}

// RenderFleetScaling formats the scaling ablation.
func RenderFleetScaling(r *FleetScalingResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet scaling (%s round-robin, %d units/tenant, full protection):\n",
		strings.Join(r.Apps, ","), r.Units)
	b.WriteString("tenants | shared compiles (/tenant) | per-tenant compiles (/tenant) | units/s | mon cyc/unit\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%7d | %7d (%.3f) | %7d (%.3f) | %10.0f | %7.0f\n",
			row.Tenants, row.SharedCompiles, row.SharedCompilesPerTenant(),
			row.PerTenantCompiles, row.PerTenantCompilesPerTenant(),
			row.Throughput, row.MonPerUnit)
	}
	return b.String()
}
