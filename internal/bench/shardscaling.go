package bench

import (
	"fmt"
	"reflect"
	"strings"

	"bastion/internal/fleet"
	"bastion/internal/fleet/shard"
)

// ShardTenantCounts is the sharded control plane ablation's fleet axis.
var ShardTenantCounts = []int{256, 1024, 4096}

// ShardCounts is its shard-count axis.
var ShardCounts = []int{1, 4, 16, 64}

// ShardScalingUnits is the sweep's default per-tenant unit count: the
// experiment measures control-plane behavior (admission, placement,
// reload), which launch and admission dominate, so it runs far fewer
// steady-state units than DefaultUnits. 8 units with the reload halfway
// guarantees every app a trap boundary after the stage point.
const ShardScalingUnits = 8

// shardBenchAdmission is deliberately tight so the shard-count axis has a
// visible admission signal: one shard absorbing the whole fleet saturates
// its token bucket and rejects, while spreading the same arrivals across
// more shards drains cleanly.
func shardBenchAdmission() *shard.AdmissionConfig {
	return &shard.AdmissionConfig{
		Burst:          32,
		RefillCycles:   20_000,
		QueueDepth:     64,
		RetryCycles:    500_000,
		ArrivalSpacing: 2_000,
	}
}

// ShardScalingRow is one (tenants, shards) point.
type ShardScalingRow struct {
	Tenants int
	Shards  int

	// Makespan is the fleet's simulated completion time (admission
	// included); Throughput the completed units per simulated second.
	Makespan   uint64
	Throughput float64

	// Admission outcomes: total full-queue rejections and the worst
	// admission latency any tenant absorbed.
	Rejects int
	MaxWait uint64

	// Hot-reload outcomes (0 when the point runs without a reload):
	// applied swaps and mean swap latency in cycles.
	Reloads    uint64
	ReloadMean float64
}

// ShardScalingResult is the full control-plane ablation.
type ShardScalingResult struct {
	Apps     []string
	Units    int
	ReloadAt int // 0 = no mid-run reload
	Rows     []ShardScalingRow
}

// ShardScaling sweeps tenant count × shard count under a tight admission
// config, hot-reloading the policy halfway through each tenant's units
// when units permit (≥ 2). Points at or below 256 tenants are run twice —
// concurrent per-shard pools and fully serial — with tenant results
// asserted identical, so the table doubles as a determinism check.
func ShardScaling(units int, tenantCounts, shardCounts []int) (*ShardScalingResult, error) {
	res := &ShardScalingResult{Apps: Apps, Units: units}
	if units >= 2 {
		res.ReloadAt = units / 2
	}
	for _, tenants := range tenantCounts {
		for _, shards := range shardCounts {
			cfg := fleet.DefaultConfig(tenants, units, Apps...)
			cfg.Seed = 42
			cfg.Shards = shards
			cfg.Admission = shardBenchAdmission()
			if res.ReloadAt > 0 {
				cfg.ReloadAt = res.ReloadAt
				cfg.ReloadSpec = &fleet.PolicySpec{TreeFilter: true}
			}

			rep, err := fleet.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("shard scaling %d×%d: %w", tenants, shards, err)
			}
			if tenants <= 256 {
				det := cfg
				det.Deterministic = true
				serial, err := fleet.Run(det)
				if err != nil {
					return nil, fmt.Errorf("shard scaling %d×%d (serial): %w", tenants, shards, err)
				}
				if !reflect.DeepEqual(rep.Results, serial.Results) {
					return nil, fmt.Errorf("shard scaling %d×%d: concurrent and serial dispatch diverged", tenants, shards)
				}
			}

			res.Rows = append(res.Rows, ShardScalingRow{
				Tenants:    tenants,
				Shards:     shards,
				Makespan:   rep.WallCycles(),
				Throughput: rep.Throughput(),
				Rejects:    rep.AdmitRejects(),
				MaxWait:    rep.MaxAdmitWait(),
				Reloads:    rep.Reloads(),
				ReloadMean: rep.MeanReloadCycles(),
			})
		}
	}
	return res, nil
}

// DefaultShardScaling runs the full 256/1k/4k × shard-count sweep.
func DefaultShardScaling(units int) (*ShardScalingResult, error) {
	return ShardScaling(units, ShardTenantCounts, ShardCounts)
}

// RenderShardScaling formats the control-plane ablation.
func RenderShardScaling(r *ShardScalingResult) string {
	var b strings.Builder
	reload := "no mid-run reload"
	if r.ReloadAt > 0 {
		reload = fmt.Sprintf("hot reload at unit %d", r.ReloadAt)
	}
	fmt.Fprintf(&b, "shard scaling (%s round-robin, %d units/tenant, %s):\n",
		strings.Join(r.Apps, ","), r.Units, reload)
	b.WriteString("tenants | shards | makespan cyc | units/s | rejects | max admit wait | reloads | mean reload cyc\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%7d | %6d | %12d | %10.0f | %7d | %14d | %7d | %.0f\n",
			row.Tenants, row.Shards, row.Makespan, row.Throughput,
			row.Rejects, row.MaxWait, row.Reloads, row.ReloadMean)
	}
	return b.String()
}
