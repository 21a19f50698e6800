package fleet

import (
	"reflect"
	"strings"
	"testing"

	"bastion/internal/fleet/shard"
)

// TestShardedFleetDeterminism: under the sharded control plane the report
// is byte-identical across reruns, and between concurrent per-shard pools
// and a fully serial run — placement and admission are computed before
// any tenant starts, so pool interleaving cannot leak into the report.
func TestShardedFleetDeterminism(t *testing.T) {
	cfg := DefaultConfig(24, 3)
	cfg.Seed = 7
	cfg.Shards = 4

	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Markdown() != r2.Markdown() {
		t.Fatal("sharded report not deterministic under fixed seed")
	}

	det := cfg
	det.Deterministic = true
	r3, err := Run(det)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Markdown() != r3.Markdown() {
		t.Fatalf("sharded concurrent vs serial reports differ:\n%s\n---\n%s",
			r1.Markdown(), r3.Markdown())
	}
}

// TestFlatIsOneOpenShard: an unsharded fleet is literally one shard with
// admission off — its report renders byte-identical to an explicit
// one-shard, admission-off run — and the control plane is pure
// bookkeeping: a 3-shard run executes every tenant exactly as the
// unsharded run does, differing only in the placement/admission stamps.
func TestFlatIsOneOpenShard(t *testing.T) {
	cfg := DefaultConfig(12, 4)
	cfg.Seed = 5
	flat, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	one := cfg
	one.Shards = 1
	one.Admission = &shard.AdmissionConfig{}
	open, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Markdown() != open.Markdown() {
		t.Fatalf("unsharded report differs from one open shard:\n%s\n---\n%s",
			flat.Markdown(), open.Markdown())
	}

	sh := cfg
	sh.Shards = 3
	rep, err := Run(sh)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != 3 {
		t.Fatalf("report carries %d shard plans, want 3", len(rep.Shards))
	}
	for i := range rep.Results {
		got := rep.Results[i]
		if got.Shard < 0 || got.Shard >= sh.Shards {
			t.Fatalf("tenant %d stamped with shard %d", i, got.Shard)
		}
		got.Shard, got.AdmitCycles, got.AdmitRejects = 0, 0, 0
		if !reflect.DeepEqual(got, flat.Results[i]) {
			t.Errorf("tenant %d diverges from the unsharded run:\nsharded   %+v\nunsharded %+v",
				i, got, flat.Results[i])
		}
	}
}

// TestShardedBackpressure: a deliberately starved admission config forces
// full-queue rejections; every tenant is still eventually admitted and
// completes, and the rejections surface in the report.
func TestShardedBackpressure(t *testing.T) {
	cfg := DefaultConfig(12, 2)
	cfg.Seed = 9
	cfg.Shards = 1
	cfg.Admission = &shard.AdmissionConfig{
		Burst:        1,
		RefillCycles: 200_000,
		QueueDepth:   2,
		RetryCycles:  300_000,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AdmitRejects() == 0 {
		t.Fatal("starved admission produced no rejections")
	}
	if got := rep.TotalUnits(); got != cfg.Tenants*cfg.Units {
		t.Fatalf("fleet completed %d units, want %d — rejection must delay, not drop", got, cfg.Tenants*cfg.Units)
	}
	if rep.MaxAdmitWait() == 0 {
		t.Fatal("no admission latency recorded despite queueing")
	}
	md := rep.Markdown()
	for _, want := range []string{"### Shards", "Admission:"} {
		if !strings.Contains(md, want) {
			t.Errorf("sharded report missing %q section", want)
		}
	}
	if !strings.Contains(rep.String(), "1 shards") {
		t.Errorf("one-line summary omits shards: %s", rep.String())
	}
}

// TestShardedAdmissionChargesMakespan: admission latency front-pads the
// tenant timeline, so a starved fleet's makespan strictly exceeds the
// same fleet with admission wide open.
func TestShardedAdmissionChargesMakespan(t *testing.T) {
	cfg := DefaultConfig(8, 2)
	cfg.Seed = 11
	cfg.Shards = 1
	cfg.Deterministic = true
	cfg.Admission = &shard.AdmissionConfig{Burst: 1, RefillCycles: 0} // wide open
	open, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Admission = &shard.AdmissionConfig{
		Burst: 1, RefillCycles: 500_000, QueueDepth: 16, RetryCycles: 100_000,
	}
	starved, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if starved.WallCycles() <= open.WallCycles() {
		t.Fatalf("starved makespan %d not above open %d", starved.WallCycles(), open.WallCycles())
	}
}

// TestShardedFleetScalesAcceptance is the tentpole acceptance check at
// fleet scale: a 4096-tenant sharded run completes with byte-identical
// reports between serial and concurrent dispatch.
func TestShardedFleetScalesAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("4k-tenant acceptance run skipped in -short")
	}
	cfg := DefaultConfig(4096, 1)
	cfg.Seed = 4096
	cfg.Shards = 16

	conc, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det := cfg
	det.Deterministic = true
	serial, err := Run(det)
	if err != nil {
		t.Fatal(err)
	}
	if conc.Markdown() != serial.Markdown() {
		t.Fatal("4k-tenant sharded reports differ between concurrent and serial dispatch")
	}
	if got := conc.TotalUnits(); got != cfg.Tenants*cfg.Units {
		t.Fatalf("fleet completed %d units, want %d", got, cfg.Tenants*cfg.Units)
	}
	if conc.Dead() != 0 || conc.Kills() != 0 || conc.Faults() != 0 {
		t.Fatalf("benign 4k fleet recorded failures: %s", conc.String())
	}
}
