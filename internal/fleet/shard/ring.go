// Package shard is the fleet control plane's sharding layer: a consistent-
// hash placement ring mapping tenants onto K shard supervisors, and a
// deterministic admission model — per-shard token buckets and bounded
// queues with reject-plus-retry backpressure — that decides when each
// tenant's launch is granted.
//
// Everything here is pure computation over the fleet's seeded schedule: no
// goroutines, no wall clock, no map iteration feeding output. The fleet
// supervisor computes the whole placement and admission plan up front,
// then dispatches tenants concurrently; because the plan is fixed before
// the first goroutine starts, a sharded fleet report is byte-identical
// whether the shards run serially or in parallel.
package shard

// Ring is a consistent-hash placement ring: each shard projects
// DefaultVnodes virtual points onto the hash circle, and a tenant lands
// on the first point clockwise from its own hash. Consistent hashing
// keeps placement stable as the shard count changes — growing K moves
// only ~1/K of the tenants — which is what lets a production fleet
// resize its control plane without a mass migration.
type Ring struct {
	shards int
	points []point // sorted by hash
}

type point struct {
	hash  uint64
	shard int
}

// DefaultVnodes balances the ring well past 4k tenants while keeping ring
// construction trivial.
const DefaultVnodes = 64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hash64 is FNV-1a over the byte string; stable across runs and platforms.
func hash64(parts ...uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			h = (h ^ (p >> (8 * i) & 0xff)) * fnvPrime64
		}
	}
	return h
}

// NewRing builds a ring of the given shard count (at least one).
func NewRing(shards int) *Ring {
	if shards < 1 {
		shards = 1
	}
	r := &Ring{shards: shards, points: make([]point, 0, shards*DefaultVnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < DefaultVnodes; v++ {
			r.points = append(r.points, point{hash: hash64(uint64(s), uint64(v), 0x9e3779b97f4a7c15), shard: s})
		}
	}
	// Insertion sort keeps this dependency-free and deterministic; ties
	// (vanishingly rare with 64-bit hashes) break toward the lower shard.
	pts := r.points
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && less(pts[j], pts[j-1]); j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	return r
}

func less(a, b point) bool {
	if a.hash != b.hash {
		return a.hash < b.hash
	}
	return a.shard < b.shard
}

// Shards returns the ring's shard count.
func (r *Ring) Shards() int { return r.shards }

// Place maps a tenant index to its owning shard: binary search for the
// first ring point at or clockwise past the tenant's hash.
func (r *Ring) Place(tenant int) int {
	h := hash64(uint64(tenant), 0x62617374696f6e) // "bastion"
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0 // wrap past the top of the circle
	}
	return r.points[lo].shard
}

// Members splits tenants 0..n-1 into per-shard member lists, preserving
// the given dispatch order within each shard (the fleet passes its seeded
// schedule, so per-shard admission order inherits the fleet's).
func (r *Ring) Members(schedule []int) [][]int {
	out := make([][]int, r.shards)
	for _, tenant := range schedule {
		s := r.Place(tenant)
		out[s] = append(out[s], tenant)
	}
	return out
}
