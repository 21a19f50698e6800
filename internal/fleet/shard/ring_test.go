package shard

import "testing"

func TestRingPlacementDeterministic(t *testing.T) {
	a := NewRing(8)
	b := NewRing(8)
	for tenant := 0; tenant < 1000; tenant++ {
		if a.Place(tenant) != b.Place(tenant) {
			t.Fatalf("tenant %d placed differently by identical rings", tenant)
		}
	}
}

func TestRingCoversAllShards(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 16} {
		r := NewRing(shards)
		seen := make([]int, shards)
		for tenant := 0; tenant < 4096; tenant++ {
			s := r.Place(tenant)
			if s < 0 || s >= shards {
				t.Fatalf("shards=%d: tenant %d placed on %d", shards, tenant, s)
			}
			seen[s]++
		}
		for id, n := range seen {
			if n == 0 {
				t.Errorf("shards=%d: shard %d received no tenants", shards, id)
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	// With 64 vnodes per shard, 4096 tenants over 16 shards should land
	// within a loose factor of the 256-per-shard ideal: consistent
	// hashing is not perfectly uniform, but it must not collapse.
	r := NewRing(16)
	counts := make([]int, 16)
	for tenant := 0; tenant < 4096; tenant++ {
		counts[r.Place(tenant)]++
	}
	for id, n := range counts {
		if n < 64 || n > 1024 {
			t.Errorf("shard %d holds %d of 4096 tenants (ideal 256): ring badly unbalanced", id, n)
		}
	}
}

func TestRingStabilityAcrossGrowth(t *testing.T) {
	// Consistent hashing's point: growing the shard count moves only a
	// fraction of the tenants. Going 8 -> 9 shards must move well under
	// half the fleet (1/9 ≈ 11% ideally).
	small, big := NewRing(8), NewRing(9)
	moved := 0
	const tenants = 4096
	for tenant := 0; tenant < tenants; tenant++ {
		if small.Place(tenant) != big.Place(tenant) {
			moved++
		}
	}
	if moved > tenants/2 {
		t.Fatalf("growing 8->9 shards moved %d/%d tenants; consistent hashing broken", moved, tenants)
	}
}

func TestMembersPreserveScheduleOrder(t *testing.T) {
	r := NewRing(4)
	schedule := []int{5, 2, 9, 0, 7, 3, 1, 8, 6, 4}
	members := r.Members(schedule)
	pos := map[int]int{}
	for i, tenant := range schedule {
		pos[tenant] = i
	}
	total := 0
	for id, m := range members {
		total += len(m)
		for i := 1; i < len(m); i++ {
			if pos[m[i-1]] > pos[m[i]] {
				t.Errorf("shard %d members %v out of schedule order", id, m)
			}
		}
		for _, tenant := range m {
			if r.Place(tenant) != id {
				t.Errorf("tenant %d listed on shard %d but places on %d", tenant, id, r.Place(tenant))
			}
		}
	}
	if total != len(schedule) {
		t.Fatalf("members cover %d tenants, want %d", total, len(schedule))
	}
}
