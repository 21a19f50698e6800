package bench

import (
	"fmt"
	"testing"
)

// TestShardScalingAblation runs the control-plane sweep at test scale and
// checks its two headline signals: adding shards relieves admission
// pressure (fewer rejections, lower worst wait, no worse makespan), and
// every point's hot reload applies once per tenant.
func TestShardScalingAblation(t *testing.T) {
	// 8 units with the reload at 4: every app (sqlite traps only on some
	// units) is guaranteed a trap boundary after the stage point.
	const units, tenants = 8, 48
	shards := []int{1, 4}
	tab, err := shardScaling(units, []int{tenants}, shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(shards) {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), len(shards))
	}
	for i, s := range shards {
		if got := tab.Rows[i].Cells[1].render(); got != fmt.Sprint(s) {
			t.Fatalf("row %d has %s shards, want %d", i, got, s)
		}
	}
	m := byName(tab)
	v := func(shards int, name string) float64 { return get(t, m, shardStem(tenants, shards)+name) }
	if four, one := v(4, "max_admit_wait_cycles"), v(1, "max_admit_wait_cycles"); four >= one {
		t.Errorf("4 shards max wait %.0f not below 1 shard %.0f", four, one)
	}
	if four, one := v(4, "rejects"), v(1, "rejects"); four > one {
		t.Errorf("4 shards rejected more (%.0f) than 1 shard (%.0f)", four, one)
	}
	if four, one := v(4, "makespan_cycles"), v(1, "makespan_cycles"); four > one {
		t.Errorf("4 shards makespan %.0f above 1 shard %.0f", four, one)
	}
	for _, s := range shards {
		if got := v(s, "reloads"); got != tenants {
			t.Errorf("%d×%d: %.0f reloads, want one per tenant", tenants, s, got)
		}
		if got := v(s, "mean_reload_cycles"); got <= 0 {
			t.Errorf("%d×%d: mean reload cycles %.0f, want positive", tenants, s, got)
		}
		if v(s, "throughput") <= 0 {
			t.Errorf("%d×%d: zero throughput", tenants, s)
		}
	}
	t.Logf("\n%s", tab.Markdown())
}
