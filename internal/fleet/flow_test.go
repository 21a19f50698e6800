package fleet

import (
	"strings"
	"testing"

	"bastion/internal/core/monitor"
)

// TestFleetSyscallFlowKillAndReset: a tenant running an ordering attack is
// killed by the monitor's syscall-flow check, and because every restart
// incarnation gets a fresh monitor, its transition state (including the
// first-trap requirement) resets — the replacement incarnation completes
// the full unit budget without tripping over the dead one's history.
func TestFleetSyscallFlowKillAndReset(t *testing.T) {
	cfg := DefaultConfig(2, 6, "vsftpd")
	cfg.Deterministic = true
	cfg.Trace = true
	cfg.Malicious = map[int]string{0: "ord-sandbox-reseal"}

	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mal, clean := rep.Results[0], rep.Results[1]

	if mal.Attack == nil {
		t.Fatal("malicious tenant recorded no attack outcome")
	}
	if mal.Attack.Completed {
		t.Error("ordering attack completed under full contexts")
	}
	if !mal.Attack.Killed || mal.Attack.KilledBy != "monitor" {
		t.Fatalf("attack outcome = %+v, want monitor kill", mal.Attack)
	}
	if !strings.Contains(mal.Attack.Reason, "syscall-flow") {
		t.Errorf("kill reason %q does not name syscall-flow", mal.Attack.Reason)
	}
	if mal.ContextViolations[monitor.SyscallFlow] == 0 {
		t.Errorf("ContextViolations %v missing SyscallFlow", mal.ContextViolations)
	}

	// The restart after the kill must finish every unit: fresh-monitor flow
	// state means the replacement's first trap is judged against the start
	// set, not the killed incarnation's last syscall.
	if mal.Kills != 1 || mal.Restarts != 1 {
		t.Errorf("kills=%d restarts=%d, want 1/1", mal.Kills, mal.Restarts)
	}
	if mal.Units != cfg.Units {
		t.Errorf("malicious tenant finished %d units, want %d", mal.Units, cfg.Units)
	}
	if mal.Dead {
		t.Error("tenant marked dead despite restart budget")
	}

	// Flow checks run on every full-mode trap in both tenants, and the
	// merged per-tenant registry must agree with the summed field.
	for i, res := range []TenantResult{mal, clean} {
		if res.FlowChecks == 0 {
			t.Errorf("tenant %d: FlowChecks = 0 with SF enforced", i)
		}
		if res.Metrics == nil {
			t.Fatalf("tenant %d: Trace on but no merged registry", i)
		}
		if got := res.Metrics.Counter("monitor_flow_checks_total").Value(); got != res.FlowChecks {
			t.Errorf("tenant %d: registry flow checks %d != TenantResult.FlowChecks %d",
				i, got, res.FlowChecks)
		}
	}
	if clean.Kills != 0 || len(clean.ContextViolations) != 0 {
		t.Errorf("clean tenant disturbed: %+v", clean)
	}

	// SF disabled: the same ordering attack completes — the fleet threads
	// the context set all the way to each incarnation's monitor.
	noSF := cfg
	noSF.Trace = false
	noSF.UseContexts = true
	noSF.Contexts = monitor.CallType | monitor.ControlFlow | monitor.ArgIntegrity
	rep2, err := Run(noSF)
	if err != nil {
		t.Fatal(err)
	}
	mal2 := rep2.Results[0]
	if mal2.Attack == nil || !mal2.Attack.Completed {
		t.Fatalf("ordering attack without SF: outcome %+v, want completed", mal2.Attack)
	}
	if mal2.FlowChecks != 0 {
		t.Errorf("FlowChecks = %d with SF disabled, want 0", mal2.FlowChecks)
	}
}

// TestViolationsByContextCountsEveryContext: the report's rollup counts
// each recorded violation under its own context, syscall-flow included,
// and the markdown report prints the rollup line.
func TestViolationsByContextCountsEveryContext(t *testing.T) {
	cfg := DefaultConfig(2, 6, "vsftpd")
	cfg.Deterministic = true
	cfg.Malicious = map[int]string{0: "ord-sandbox-reseal"}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mal := rep.Results[0]
	if len(mal.Violations) == 0 {
		t.Fatal("malicious tenant recorded no violation")
	}
	byCtx := rep.ViolationsByContext()
	if byCtx[monitor.SyscallFlow] != len(mal.Violations) {
		t.Errorf("syscall-flow violations = %d, want %d (%v)", byCtx[monitor.SyscallFlow], len(mal.Violations), mal.Violations)
	}
	total := 0
	for _, n := range byCtx {
		total += n
	}
	if total != len(mal.Violations)+len(rep.Results[1].Violations) {
		t.Errorf("rollup counts %d violations, tenants recorded %d", total, len(mal.Violations)+len(rep.Results[1].Violations))
	}
	want := "Violations by context: syscall-flow=1.\n"
	if !strings.Contains(rep.Markdown(), want) {
		t.Errorf("report lacks %q", want)
	}
}
