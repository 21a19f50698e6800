package fleet

import (
	"reflect"
	"strings"
	"testing"

	"bastion/internal/attacks"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/fleet/shard"
	"bastion/internal/kernel"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	base := DefaultConfig(4, 6)
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero tenants", func(c *Config) { c.Tenants = 0 }, "tenants must be positive"},
		{"negative units", func(c *Config) { c.Units = -1 }, "units must be positive"},
		{"no apps", func(c *Config) { c.Apps = nil }, "at least one app"},
		{"unknown app", func(c *Config) { c.Apps = []string{"redis"} }, "unknown target"},
		{"negative restarts", func(c *Config) { c.MaxRestarts = -1 }, "non-negative"},
		{"malicious out of range", func(c *Config) { c.Malicious = map[int]string{9: "direct-cscfi"} }, "outside fleet"},
		{"unknown attack", func(c *Config) { c.Malicious = map[int]string{0: "nope"} }, "unknown attack"},
		{"attack app mismatch", func(c *Config) { c.Malicious = map[int]string{1: "direct-cscfi"} }, "targets nginx"},
		{"negative workers", func(c *Config) { c.Workers = -2 }, "workers must be non-negative"},
		{"fault tenant out of range", func(c *Config) { c.FaultAt = map[int]int{7: 2} }, "fault tenant 7 outside fleet"},
		{"negative fault tenant", func(c *Config) { c.FaultAt = map[int]int{-1: 2} }, "outside fleet"},
		{"negative fault unit", func(c *Config) { c.FaultAt = map[int]int{1: -3} }, "fault unit must be non-negative"},
		{"negative shards", func(c *Config) { c.Shards = -1 }, "shards must be non-negative"},
		{"admission without shards", func(c *Config) { c.Admission = &shard.AdmissionConfig{} }, "admission control needs shards"},
		{"negative reload unit", func(c *Config) { c.ReloadAt = -1 }, "reload unit must be non-negative"},
		{"reload without spec", func(c *Config) { c.ReloadAt = 3 }, "needs a reload policy spec"},
		{"reload past units", func(c *Config) { c.ReloadAt = 6; c.ReloadSpec = &PolicySpec{} }, "needs more than"},
		{"empty context mask", func(c *Config) { c.UseContexts = true }, "enable at least one context"},
		{"empty reload context mask", func(c *Config) { c.ReloadAt = 3; c.ReloadSpec = &PolicySpec{UseContexts: true} },
			"reload context mask must enable"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestFleetDeterminism: the aggregate report is byte-identical across
// reruns with the same seed, and between concurrent and deterministic
// (serial) execution — tenants share no mutable state, so interleaving
// cannot leak into results.
func TestFleetDeterminism(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	cfg.Seed = 1234

	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Markdown() != r2.Markdown() {
		t.Fatalf("same seed, different reports:\n%s\n---\n%s", r1.Markdown(), r2.Markdown())
	}

	det := cfg
	det.Deterministic = true
	r3, err := Run(det)
	if err != nil {
		t.Fatal(err)
	}
	m1 := r1.Markdown()
	m3 := r3.Markdown()
	if m1 != m3 {
		t.Fatalf("concurrent vs deterministic reports differ:\n%s\n---\n%s", m1, m3)
	}

	other := cfg
	other.Seed = 99
	r4, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Schedule, r4.Schedule) {
		t.Errorf("different seeds produced identical schedules %v", r1.Schedule)
	}
	// Schedules differ but per-tenant results must not.
	if !reflect.DeepEqual(r1.Results, r4.Results) {
		t.Errorf("tenant results depend on the dispatch seed")
	}
}

// TestFleetStandaloneEquivalence: a fleet tenant's counters are
// byte-identical to a standalone launch of the same workload under the
// same monitor configuration — sharing artifacts changes nothing
// observable.
func TestFleetStandaloneEquivalence(t *testing.T) {
	const units = 6
	cfg := DefaultConfig(3, units)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range workload.Apps {
		target, err := workload.NewTarget(app)
		if err != nil {
			t.Fatal(err)
		}
		art, err := core.Compile(target.Build(), core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.New(nil)
		k.Costs.IOPerByte = workload.IOPerByte(app)
		if err := target.Fixture(k); err != nil {
			t.Fatal(err)
		}
		mcfg := monitor.DefaultConfig()
		prot, err := core.Launch(art, k, mcfg, vm.WithMaxSteps(maxSteps))
		if err != nil {
			t.Fatal(err)
		}
		wl, err := workload.Run(target, prot, units)
		if err != nil {
			t.Fatal(err)
		}

		tr := rep.Results[i]
		if tr.App != app {
			t.Fatalf("tenant %d app %s, want %s", i, tr.App, app)
		}
		got := workload.Result{
			Units: tr.Units, Bytes: tr.Bytes, InitCycles: tr.InitCycles,
			TotalCycles: tr.TotalCycles, MonitorCycles: tr.MonitorCycles, Traps: tr.Traps,
		}
		if got != wl {
			t.Errorf("%s: fleet result %+v != standalone %+v", app, got, wl)
		}
		if tr.SetupCycles != prot.Monitor.InitCycles {
			t.Errorf("%s: setup cycles %d != standalone attach cost %d", app, tr.SetupCycles, prot.Monitor.InitCycles)
		}
		if len(tr.Violations) != len(prot.Monitor.Violations) {
			t.Errorf("%s: violation counts differ", app)
		}
	}
}

// TestSharedVsPerTenantIdentical: disabling artifact sharing changes only
// the compilation counts, never any tenant-visible result.
func TestSharedVsPerTenantIdentical(t *testing.T) {
	cfg := DefaultConfig(6, 5)
	cfg.Seed = 3

	shared, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ShareArtifacts = false
	private, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared.Results, private.Results) {
		t.Fatalf("tenant results differ between shared and per-tenant compilation")
	}
	if shared.Compiles != len(cfg.Apps) {
		t.Errorf("shared compiles = %d, want one per distinct app (%d)", shared.Compiles, len(cfg.Apps))
	}
	if private.Compiles != cfg.Tenants {
		t.Errorf("per-tenant compiles = %d, want one per tenant (%d)", private.Compiles, cfg.Tenants)
	}
	if shared.FilterCompiles != len(cfg.Apps) || private.FilterCompiles != cfg.Tenants {
		t.Errorf("filter compiles shared=%d private=%d, want %d and %d",
			shared.FilterCompiles, private.FilterCompiles, len(cfg.Apps), cfg.Tenants)
	}
}

// TestRestartBackoff: an injected unit fault costs one restart with
// backoff, the tenant still finishes all units, and partial progress from
// the failed incarnation is preserved in the counters.
func TestRestartBackoff(t *testing.T) {
	cfg := DefaultConfig(2, 8, "nginx")
	cfg.Deterministic = true
	cfg.FaultAt = map[int]int{0: 3}

	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	faulted, clean := rep.Results[0], rep.Results[1]
	if faulted.Units != cfg.Units {
		t.Errorf("faulted tenant finished %d units, want %d", faulted.Units, cfg.Units)
	}
	if faulted.Faults != 1 || faulted.Kills != 0 || faulted.Restarts != 1 {
		t.Errorf("faulted tenant: faults=%d kills=%d restarts=%d, want 1/0/1",
			faulted.Faults, faulted.Kills, faulted.Restarts)
	}
	if faulted.BackoffCycles != BackoffBase {
		t.Errorf("backoff = %d, want base %d", faulted.BackoffCycles, BackoffBase)
	}
	if faulted.Dead {
		t.Error("faulted tenant marked dead despite restart budget")
	}
	// The failed incarnation's 3 completed units plus the restart's 5 must
	// cost exactly what 8 clean units cost: partial progress is preserved,
	// not re-run or discarded. Init, by contrast, is paid twice.
	if faulted.TotalCycles != clean.TotalCycles {
		t.Errorf("faulted tenant steady-state cycles %d != clean tenant %d (partial progress mishandled)",
			faulted.TotalCycles, clean.TotalCycles)
	}
	if faulted.InitCycles <= clean.InitCycles {
		t.Errorf("faulted tenant init cycles %d not above clean %d (second incarnation unpaid?)",
			faulted.InitCycles, clean.InitCycles)
	}
	if clean.Faults != 0 || clean.Restarts != 0 {
		t.Errorf("clean tenant disturbed: %+v", clean)
	}

	// Exhausted budget: with MaxRestarts=0 the first fault is fatal and
	// partial progress is recorded.
	dead := cfg
	dead.MaxRestarts = 0
	rep2, err := Run(dead)
	if err != nil {
		t.Fatal(err)
	}
	d := rep2.Results[0]
	if !d.Dead {
		t.Fatal("tenant with exhausted restart budget not marked dead")
	}
	if d.Units != 3 {
		t.Errorf("dead tenant recorded %d units, want the 3 completed before the fault", d.Units)
	}
	if d.Restarts != 0 || d.BackoffCycles != 0 {
		t.Errorf("dead tenant restarts=%d backoff=%d, want 0/0", d.Restarts, d.BackoffCycles)
	}
}

// TestBackoffCap: the restart penalty doubles per consecutive failure
// from BackoffBase and saturates at BackoffCap, including restart counts
// far past the point where the doubling would overflow.
func TestBackoffCap(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want uint64
	}{
		{1, BackoffBase},
		{2, 2 * BackoffBase},
		{3, 4 * BackoffBase},
		{6, 32 * BackoffBase},
		{7, BackoffCap},
		{8, BackoffCap},
		{31, BackoffCap},
		{64, BackoffCap},
		{1000, BackoffCap},
	} {
		if got := backoff(tc.n); got != tc.want {
			t.Errorf("backoff(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestMaliciousReplayMatchesManualAdoption: the fleet's attack replay is
// byte-identical to performing the same adoption by hand with the public
// attacks API — outcome fields and recorded violations included.
func TestMaliciousReplayMatchesManualAdoption(t *testing.T) {
	const units = 6
	cfg := DefaultConfig(1, units, "vsftpd")
	cfg.Malicious = map[int]string{0: "cve-2012-0809"}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Results[0]
	if tr.Attack == nil {
		t.Fatal("malicious tenant recorded no attack outcome")
	}

	// Manual reconstruction of the fleet's first incarnation.
	target := workload.NewVsftpd()
	art, err := core.Compile(target.Build(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(nil)
	k.Costs.IOPerByte = workload.IOPerByte("vsftpd")
	attacks.InstallFixtures(k)
	if err := target.Fixture(k); err != nil {
		t.Fatal(err)
	}
	prot, err := core.Launch(art, k, monitor.DefaultConfig(), vm.WithMaxSteps(maxSteps))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(target, prot, units/2); err != nil {
		t.Fatal(err)
	}
	s, _ := attacks.ByID("cve-2012-0809")
	out := attacks.Replay(s, attacks.Adopt(prot, target))

	got := AttackOutcome{ID: "cve-2012-0809", Completed: out.Completed, Killed: out.Killed,
		KilledBy: out.KilledBy, Reason: out.Reason}
	if *tr.Attack != got {
		t.Errorf("fleet attack outcome %+v != manual adoption %+v", *tr.Attack, got)
	}
	var manualViolations []string
	for _, v := range prot.Monitor.Violations {
		manualViolations = append(manualViolations, v.String())
	}
	// The fleet tenant restarted after the kill and ran clean, so its
	// violation log must equal the failed incarnation's exactly.
	if !reflect.DeepEqual(tr.Violations, manualViolations) {
		t.Errorf("violations differ:\nfleet:  %v\nmanual: %v", tr.Violations, manualViolations)
	}
	if !out.Killed {
		t.Fatalf("expected the replayed attack to be killed, got %+v", out)
	}
	if tr.Units != units {
		t.Errorf("malicious tenant finished %d units, want %d after restart", tr.Units, units)
	}
}
