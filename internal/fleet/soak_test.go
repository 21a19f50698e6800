package fleet

import (
	"testing"

	"bastion/internal/core/monitor"
)

// TestFleetSoakRace is the fleet's -race soak: a real multi-tenant mix
// (all three apps, full monitoring) running concurrently from one shared
// artifact cache. The race detector guards the sharing claims; the
// assertions guard the aggregate report's determinism under a fixed seed.
func TestFleetSoakRace(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	cfg := DefaultConfig(18, 6)
	cfg.Seed = 77
	cfg.Workers = 8

	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r1.TotalUnits(); got != cfg.Tenants*cfg.Units {
		t.Fatalf("fleet completed %d units, want %d", got, cfg.Tenants*cfg.Units)
	}
	if r1.Restarts() != 0 || r1.Kills() != 0 || r1.Faults() != 0 || r1.Dead() != 0 {
		t.Fatalf("benign soak recorded failures: %s", r1.String())
	}
	if r1.Compiles != len(cfg.Apps) {
		t.Errorf("shared cache compiled %d programs for %d tenants, want %d", r1.Compiles, cfg.Tenants, len(cfg.Apps))
	}

	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Markdown() != r2.Markdown() {
		t.Fatal("soak report not deterministic under fixed seed")
	}
}

// TestMaliciousTenantIsolation: one compromised tenant among benign
// siblings is detected and isolated under every monitor mode — exactly the
// injected tenant is killed and restarted; every sibling finishes its full
// unit count untouched.
func TestMaliciousTenantIsolation(t *testing.T) {
	// Tenant 2 runs vsftpd under the default round-robin app assignment.
	const evil = 2
	for _, mode := range []monitor.Mode{monitor.ModeFull, monitor.ModeFetchOnly, monitor.ModeHookOnly} {
		cfg := DefaultConfig(6, 6)
		cfg.Mode = mode
		cfg.Malicious = map[int]string{evil: "cve-2012-0809"}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		for i := range rep.Results {
			tr := &rep.Results[i]
			if i == evil {
				if tr.Attack == nil || tr.Attack.Completed {
					t.Errorf("mode %v: attack on tenant %d not blocked: %+v", mode, i, tr.Attack)
				}
				if tr.Kills != 1 {
					t.Errorf("mode %v: malicious tenant kills = %d, want 1", mode, tr.Kills)
				}
				if tr.Compromised || tr.Dead {
					t.Errorf("mode %v: malicious tenant quarantined despite blocked attack: %+v", mode, tr)
				}
				if tr.Units != cfg.Units {
					t.Errorf("mode %v: malicious tenant recovered %d units, want %d", mode, tr.Units, cfg.Units)
				}
				continue
			}
			if tr.Units != cfg.Units || tr.Restarts != 0 || tr.Kills != 0 || tr.Faults != 0 || tr.Dead {
				t.Errorf("mode %v: sibling %d disturbed: units=%d restarts=%d kills=%d faults=%d dead=%v",
					mode, i, tr.Units, tr.Restarts, tr.Kills, tr.Faults, tr.Dead)
			}
			if len(tr.Violations) != 0 {
				t.Errorf("mode %v: sibling %d recorded violations %v", mode, i, tr.Violations)
			}
		}
		if rep.Kills() != 1 {
			t.Errorf("mode %v: fleet kills = %d, want exactly the injected one", mode, rep.Kills())
		}
	}
}

// TestMaliciousAllApps injects each catalog attack into its matching app's
// tenant in one fleet and checks all are blocked with the rest unharmed.
func TestMaliciousAllApps(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	cfg.Malicious = map[int]string{
		0: "direct-cscfi",  // nginx
		1: "cve-2014-1912", // sqlite
		2: "cve-2012-0809", // vsftpd
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		tr := &rep.Results[i]
		if _, malicious := cfg.Malicious[i]; malicious {
			if tr.Attack == nil || tr.Attack.Completed || !tr.Attack.Killed {
				t.Errorf("tenant %d (%s): attack not killed: %+v", i, tr.App, tr.Attack)
			}
			if tr.Units != cfg.Units {
				t.Errorf("tenant %d: units %d, want %d after restart", i, tr.Units, cfg.Units)
			}
		} else if tr.Kills != 0 || tr.Restarts != 0 || tr.Units != cfg.Units {
			t.Errorf("benign tenant %d disturbed: %+v", i, tr)
		}
	}
	if rep.Kills() != 3 {
		t.Errorf("fleet kills = %d, want 3", rep.Kills())
	}
}
