package attacks

import (
	"strings"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
)

// TestOrderingFamilyDifferential proves the syscall-flow context's claim
// with a differential run: each ordering attack completes under no
// protection, under every per-trap context (CT, CF, AI, and all three
// together), and under the hardware baselines — because every individual
// syscall it issues is one the application legitimately makes, from a
// legitimate callsite, with legitimate arguments. Only a defense that
// includes SF observes the sequence impossibility and kills the guest.
func TestOrderingFamilyDifferential(t *testing.T) {
	perTrap := Defense{Name: "CT+CF+AI", Monitor: core.Enforcing(monitor.CallType | monitor.ControlFlow | monitor.ArgIntegrity)}
	bypassed := []Defense{DefNone, DefCT, DefCF, DefAI, perTrap, DefCET, DefCFI}
	blocking := []Defense{DefSF, DefAll}

	for _, s := range Catalog() {
		if s.Category != "ordering" {
			continue
		}
		for _, d := range bypassed {
			out, err := Execute(s, d)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.ID, d.Name, err)
			}
			if !out.Completed {
				t.Errorf("%s under %s: not completed (killed by %q: %s)",
					s.ID, d.Name, out.KilledBy, out.Reason)
			}
		}
		for _, d := range blocking {
			out, err := Execute(s, d)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.ID, d.Name, err)
			}
			if out.Completed {
				t.Errorf("%s under %s: completed, want blocked", s.ID, d.Name)
			}
			if !out.Blocked() {
				t.Errorf("%s under %s: not killed", s.ID, d.Name)
			}
			if !strings.Contains(out.Reason, "syscall-flow") {
				t.Errorf("%s under %s: reason %q does not name syscall-flow",
					s.ID, d.Name, out.Reason)
			}
		}
	}
}
