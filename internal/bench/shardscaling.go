package bench

import (
	"fmt"
	"reflect"
	"strings"

	"bastion/internal/fleet"
	"bastion/internal/fleet/shard"
	"bastion/internal/obs/perf"
	"bastion/internal/workload"
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

// shardStem names one (tenants, shards) point's metrics.
func shardStem(tenants, shards int) string {
	return fmt.Sprintf("shard.t%04d.s%02d.", tenants, shards)
}

// shardScaling sweeps tenant count × shard count under a tight admission
// config, hot-reloading the policy halfway through each tenant's units
// when units permit (≥ 2). Each point reports the fleet's simulated
// makespan (admission included), completed units per simulated second,
// full-queue rejections, the worst admission wait any tenant absorbed,
// and the applied reloads with their mean latency. Points at or below 256
// tenants are run twice — concurrent per-shard pools and fully serial —
// with tenant results asserted identical, so the table doubles as a
// determinism check.
func shardScaling(units int, tenantCounts, shardCounts []int) (*Table, error) {
	reload, reloadAt := "no mid-run reload", 0
	if units >= 2 {
		reloadAt = units / 2
		reload = fmt.Sprintf("hot reload at unit %d", reloadAt)
	}
	t := &Table{
		Heading: "Shard scaling — sharded control plane",
		Note:    fmt.Sprintf("%s round-robin, %d units/tenant, %s.", strings.Join(workload.Apps, ","), units, reload),
		Header:  []string{"tenants", "shards", "makespan cyc", "units/s", "rejects", "max admit wait", "reloads", "mean reload cyc"},
	}
	for _, tenants := range tenantCounts {
		for _, shards := range shardCounts {
			cfg := fleet.DefaultConfig(tenants, units, workload.Apps...)
			cfg.Seed = 42
			cfg.Shards = shards
			cfg.Admission = shardBenchAdmission()
			if reloadAt > 0 {
				cfg.ReloadAt = reloadAt
				cfg.ReloadSpec = &fleet.PolicySpec{TreeFilter: true}
			}

			rep, err := fleet.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%d×%d: %w", tenants, shards, err)
			}
			if tenants <= 256 {
				det := cfg
				det.Deterministic = true
				serial, err := fleet.Run(det)
				if err != nil {
					return nil, fmt.Errorf("%d×%d (serial): %w", tenants, shards, err)
				}
				if !reflect.DeepEqual(rep.Results, serial.Results) {
					return nil, fmt.Errorf("%d×%d: concurrent and serial dispatch diverged", tenants, shards)
				}
			}

			m := shardStem(tenants, shards)
			t.Rows = append(t.Rows, Row{Cells: []Cell{
				cell("%d", show(tenants)),
				cell("%d", show(shards)),
				cell("%d", count(m+"makespan_cycles", rep.WallCycles(), perf.LowerIsBetter)),
				cell("%.0f", num(m+"throughput", rep.Throughput(), perf.HigherIsBetter)),
				cell("%d", count(m+"rejects", rep.AdmitRejects(), perf.LowerIsBetter)),
				cell("%d", count(m+"max_admit_wait_cycles", rep.MaxAdmitWait(), perf.LowerIsBetter)),
				cell("%d", count(m+"reloads", rep.Reloads(), perf.Exact)),
				cell("%.0f", num(m+"mean_reload_cycles", rep.MeanReloadCycles(), perf.LowerIsBetter)),
			}})
		}
	}
	return t, nil
}

// ShardScaling runs the full 256/1k/4k × shard-count sweep. It stays out
// of the report: at its default ShardScalingUnits it takes tens of
// seconds.
func ShardScaling(units int) (*Table, error) {
	return shardScaling(units, ShardTenantCounts, ShardCounts)
}
