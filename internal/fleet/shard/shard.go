package shard

// Shard is one control-plane supervisor's static plan: the tenants the
// placement ring assigned to it (in fleet dispatch order) and the
// admission grant for each. The fleet builds every shard up front — pure
// computation over the seeded schedule — then gives each shard its own
// goroutine pool; per-shard observability registries are merged into the
// fleet report afterward, in shard order.
type Shard struct {
	ID      int
	Members []int   // tenant indices, in fleet schedule order
	Grants  []Grant // one per member, same order
}

// Rejects sums full-queue rejections across the shard's grants.
func (s *Shard) Rejects() int { return TotalRejects(s.Grants) }

// MaxWait is the shard's worst admission latency in cycles.
func (s *Shard) MaxWait() uint64 { return MaxWait(s.Grants) }

// Build computes the whole control plane: places the scheduled tenants
// onto shards with a consistent-hash ring and runs each shard's admission
// plan. The result depends only on (shards, cfg, schedule), so a fleet
// run is reproducible no matter how the shards' goroutine pools
// interleave. shards < 1 builds one shard holding the whole schedule.
func Build(shards int, cfg AdmissionConfig, schedule []int) []*Shard {
	ring := NewRing(shards)
	members := ring.Members(schedule)
	out := make([]*Shard, ring.Shards())
	for id := range out {
		out[id] = &Shard{
			ID:      id,
			Members: members[id],
			Grants:  Plan(cfg, members[id]),
		}
	}
	return out
}
