package attacks

import "testing"

// TestCombinedCETAndBastion deploys the paper's actual configuration —
// CET plus all three contexts together — against one attack per category:
// ROP dies at the shadow stack before any syscall, while data-only attacks
// slip past CET and die at the monitor.
func TestCombinedCETAndBastion(t *testing.T) {
	combined := Defense{Name: "CET+BASTION", CET: true, Monitor: DefAll.Monitor}
	cases := map[string]string{ // id -> expected killer
		"rop-exec-01":     "cet",
		"rop-memperm-03":  "cet",
		"ind-aocr-nginx2": "monitor",
		"ind-coop":        "monitor",
		"direct-cscfi":    "seccomp",
	}
	for id, want := range cases {
		s, ok := ByID(id)
		if !ok {
			t.Fatalf("no scenario %s", id)
		}
		out, err := Execute(s, combined)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if out.Completed {
			t.Errorf("%s completed under CET+BASTION", id)
		}
		if out.KilledBy != want {
			t.Errorf("%s killed by %q (%s), want %q", id, out.KilledBy, out.Reason, want)
		}
	}
}

// TestDefenseInDepthMatrix: for every scenario, at least one individual
// context blocks — the Table 6 conclusion that "even if one context is
// bypassed, another can compensate".
func TestDefenseInDepthMatrix(t *testing.T) {
	for _, s := range Catalog() {
		if !(s.BlockCT || s.BlockCF || s.BlockAI || s.BlockSF) {
			t.Errorf("%s: no context expected to block", s.ID)
		}
		if s.Category == "ordering" {
			// The ordering family is the syscall-flow context's reason to
			// exist: every individual call is legitimate, so the per-trap
			// contexts all pass and only SF blocks.
			if s.BlockCT || s.BlockCF || s.BlockAI {
				t.Errorf("%s: ordering attacks must bypass the per-trap contexts", s.ID)
			}
			if !s.BlockSF {
				t.Errorf("%s: SF expected to block every ordering attack", s.ID)
			}
			continue
		}
		// AI is never bypassed across the Table 6 rows, matching the
		// paper's matrix where the AI column is all ✓.
		if !s.BlockAI {
			t.Errorf("%s: AI expected to block every Table 6 attack", s.ID)
		}
	}
}
