package monitor_test

// Offload differential suite: the in-filter verdict offload must be
// observationally invisible. An offloaded filter plus the residual ptrace
// monitor must report byte-identical violation sets, kill decisions, and
// ViolatedContexts as the pure-monitor configuration — across the complete
// Table 6 attack catalog and every monitor mode. The offload may only
// change which side of the seccomp boundary answers, never the answer.

import (
	"testing"

	"bastion/internal/attacks"
	"bastion/internal/bench"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/workload"
)

// offloadCases sweeps the context sets the offload interacts with: the
// qualifying shapes (CT, AI, CT+AI — no cross-trap or stack state), the
// disqualifying ones (CF judges the unwound stack; SF keeps cross-trap
// transition state that an in-filter allow would silently skip), and the
// reduced modes (whose traps must keep happening).
var offloadCases = []struct {
	name     string
	contexts monitor.Context
	mode     monitor.Mode
	eligible bool // a non-empty offload plan is expected
}{
	{"full/CT", monitor.CallType, monitor.ModeFull, true},
	{"full/AI", monitor.ArgIntegrity, monitor.ModeFull, true},
	{"full/CT+AI", monitor.CallType | monitor.ArgIntegrity, monitor.ModeFull, true},
	{"full/SF", monitor.SyscallFlow, monitor.ModeFull, false},
	{"full/CT+AI+SF", monitor.CallType | monitor.ArgIntegrity | monitor.SyscallFlow, monitor.ModeFull, false},
	{"full/all", monitor.AllContexts, monitor.ModeFull, false},
	{"fetch-only/all", monitor.AllContexts, monitor.ModeFetchOnly, false},
	{"hook-only/all", monitor.AllContexts, monitor.ModeHookOnly, false},
}

// TestOffloadDifferentialAttackMatrix runs the complete attack catalog
// through every monitor configuration twice — offload off and on, always
// with the fs extension so the offloadable set is non-trivial — and
// requires identical observations.
func TestOffloadDifferentialAttackMatrix(t *testing.T) {
	for _, s := range attacks.Catalog() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			for _, c := range offloadCases {
				d := attacks.Defense{Name: "offdiff/" + c.name, Monitor: core.Enforcing(c.contexts)}
				d.Monitor.Mode = c.mode
				d.Monitor.ExtendFS = true
				off, _ := observe(t, s, d)
				d.Monitor.Offload = true
				on, onEnv := observe(t, s, d)
				if !off.equal(on) {
					t.Errorf("%s: offload changed the observable outcome\n  off: %s\n  on:  %s",
						c.name, off, on)
				}
				rules := len(onEnv.P.Monitor.Generation().Offload.Rules)
				if c.eligible && rules == 0 {
					t.Errorf("%s: eligible config derived an empty offload plan", c.name)
				}
				if !c.eligible && rules != 0 {
					t.Errorf("%s: ineligible config offloaded %d syscalls", c.name, rules)
				}
			}
		})
	}
}

// TestOffloadDifferentialWorkloads drives the benchmark workloads under
// the offload's target shape (full mode, CT+AI, fs extension) with the
// offload off and on: detection results and workload outputs must be
// identical, while the offload must actually remove traps and strictly
// reduce monitor cycles.
func TestOffloadDifferentialWorkloads(t *testing.T) {
	for _, app := range workload.Apps {
		t.Run(app, func(t *testing.T) {
			spec := bench.RunSpec{App: app, Mitigation: bench.MitFull, Units: 25, ExtendFS: true}
			spec.Mitigation.Monitor.Contexts = monitor.CallType | monitor.ArgIntegrity
			off, err := bench.Run(spec)
			if err != nil {
				t.Fatalf("offload-off run: %v", err)
			}
			spec.Mitigation.Monitor.Offload = true
			on, err := bench.Run(spec)
			if err != nil {
				t.Fatalf("offload-on run: %v", err)
			}
			offMon, onMon := off.Protected.Monitor, on.Protected.Monitor
			if len(offMon.Violations) != 0 || len(onMon.Violations) != 0 {
				t.Fatalf("benign workload flagged: off=%v on=%v", offMon.Violations, onMon.Violations)
			}
			if got, want := onMon.ViolatedContexts(), offMon.ViolatedContexts(); got != want {
				t.Fatalf("ViolatedContexts diverged: %v vs %v", got, want)
			}
			if off.Workload.Units != on.Workload.Units || off.Workload.Bytes != on.Workload.Bytes {
				t.Fatalf("workload results diverged: off=%+v on=%+v", off.Workload, on.Workload)
			}
			avoided := onMon.OffloadAvoided()
			if avoided == 0 {
				t.Fatal("offload-on run avoided no traps")
			}
			// Workload.Traps is steady-state only; LogVerdicts spans the
			// whole process lifetime, so conservation holds on the
			// process-level trap counter.
			if on.Protected.Proc.TrapCount+avoided != off.Protected.Proc.TrapCount {
				t.Errorf("trap accounting broken: on traps %d + avoided %d != off traps %d",
					on.Protected.Proc.TrapCount, avoided, off.Protected.Proc.TrapCount)
			}
			if on.Workload.MonitorCycles >= off.Workload.MonitorCycles {
				t.Errorf("offload-on monitor cycles %d not below offload-off %d",
					on.Workload.MonitorCycles, off.Workload.MonitorCycles)
			}
		})
	}
}
