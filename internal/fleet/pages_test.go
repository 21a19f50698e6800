package fleet

import (
	"testing"

	"bastion/internal/core/monitor"
	"bastion/internal/workload"
)

// TestTenantReleasesPagesOnEveryExit: every way an incarnation ends —
// finishing its units, a unit fault, an attack kill, and quarantine after
// an attack the policy let through — hands every piece of its turnover
// back to the worker's pool: guest pages and page arrays, register
// frames, the kernel's
// staging buffer and event log, and the vsFTPd download buffer, beside
// the fixture file the pool built. MaxRestarts 0 keeps each case to one
// incarnation, so a piece in the pool shows that incarnation released it.
func TestTenantReleasesPagesOnEveryExit(t *testing.T) {
	const evil = 2 // vsftpd under the default round-robin apps
	for _, tc := range []struct {
		name  string
		setup func(*Config)
		check func(*TenantResult) bool
	}{
		{"finished", func(*Config) {}, func(r *TenantResult) bool { return !r.Dead && r.Units == 6 }},
		{"fault", func(c *Config) { c.FaultAt = map[int]int{evil: 2} },
			func(r *TenantResult) bool { return r.Dead && r.Faults == 1 }},
		{"attack kill", func(c *Config) { c.Malicious = map[int]string{evil: "cve-2012-0809"} },
			func(r *TenantResult) bool { return r.Dead && r.Kills == 1 }},
		// A hook-only monitor checks nothing, so this attack completes and
		// the tenant is quarantined.
		{"quarantine", func(c *Config) {
			c.Malicious = map[int]string{evil: "cve-2014-8668"}
			c.Mode = monitor.ModeHookOnly
		}, func(r *TenantResult) bool { return r.Dead && r.Compromised }},
	} {
		cfg := DefaultConfig(3, 6)
		cfg.MaxRestarts = 0
		tc.setup(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var pool turnover
		res, _, err := runTenant(&cfg, evil, NewArtifacts(), &pool)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.check(&res) {
			t.Fatalf("%s: tenant did not take that exit: %+v", tc.name, res)
		}
		if pool.vm.Pages.Len() == 0 {
			t.Errorf("%s: the incarnation's pages were not released", tc.name)
		}
		if pool.vm.Pages.Arrays() == 0 {
			t.Errorf("%s: the incarnation's page arrays were not released", tc.name)
		}
		if pool.vm.Frames() == 0 {
			t.Errorf("%s: the incarnation's register frames were not released", tc.name)
		}
		if stage, events := pool.kernel.Cap(); stage == 0 || events == 0 {
			t.Errorf("%s: the pool holds a %d-byte staging buffer and %d event slots, want the incarnation's", tc.name, stage, events)
		}
		if blob, recv := pool.vsftpd.Cap(); blob != workload.FTPFileSize || recv < workload.FTPFileSize {
			t.Errorf("%s: the pool holds a %d-byte fixture and a %d-byte download buffer, want %d each", tc.name, blob, recv, workload.FTPFileSize)
		}
	}
}

// BenchmarkFleetOffloadTenants runs a reduced fleet-offload fleet: 12
// nginx/sqlite/vsftpd tenants of 10 units on 2 shards of 1 worker, CT|AI
// with the file-system extension and in-filter offload, and a hot reload
// to the tree-compiled generation halfway. Most of each tenant's host
// cost is launch and init, so allocs/op tracks tenant turnover.
func BenchmarkFleetOffloadTenants(b *testing.B) {
	const contexts = monitor.CallType | monitor.ArgIntegrity
	cfg := DefaultConfig(12, 10)
	cfg.UseContexts, cfg.Contexts = true, contexts
	cfg.ExtendFS, cfg.Offload = true, true
	cfg.Shards, cfg.Workers = 2, 1
	cfg.ReloadAt = cfg.Units / 2
	cfg.ReloadSpec = &PolicySpec{UseContexts: true, Contexts: contexts, ExtendFS: true, Offload: true, TreeFilter: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if got := rep.TotalUnits(); got != cfg.Tenants*cfg.Units {
			b.Fatalf("fleet completed %d units, want %d", got, cfg.Tenants*cfg.Units)
		}
	}
	b.ReportMetric(float64(b.N*cfg.Tenants*cfg.Units)/b.Elapsed().Seconds(), "units/s")
}
