package attacks

import "testing"

func TestCatalogHas36Scenarios(t *testing.T) {
	cat := Catalog()
	if len(cat) != 36 {
		t.Fatalf("catalog has %d scenarios, want 36 (Table 6 + ordering)", len(cat))
	}
	seen := map[string]bool{}
	counts := map[string]int{}
	for _, s := range cat {
		if seen[s.ID] {
			t.Errorf("duplicate scenario id %q", s.ID)
		}
		seen[s.ID] = true
		counts[s.Category]++
		if s.Run == nil {
			t.Errorf("%s has no Run", s.ID)
		}
	}
	if counts["rop"] != 18 || counts["direct"] != 9 || counts["indirect"] != 5 || counts["ordering"] != 4 {
		t.Fatalf("category counts = %v, want rop=18 direct=9 indirect=5 ordering=4", counts)
	}
}

// TestTable6 evaluates every scenario: the attack must complete
// unprotected, each context must block exactly per the paper's ✓/× marks,
// and the full three-context configuration must always block.
func TestTable6(t *testing.T) {
	for _, s := range Catalog() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			v, err := Evaluate(s)
			if err != nil {
				t.Fatalf("Evaluate: %v", err)
			}
			if !v.BaselineCompleted {
				t.Fatalf("attack does not complete unprotected")
			}
			if v.CT != s.BlockCT {
				t.Errorf("CT blocked=%v, want %v", v.CT, s.BlockCT)
			}
			if v.CF != s.BlockCF {
				t.Errorf("CF blocked=%v, want %v", v.CF, s.BlockCF)
			}
			if v.AI != s.BlockAI {
				t.Errorf("AI blocked=%v, want %v", v.AI, s.BlockAI)
			}
			if v.SF != s.BlockSF {
				t.Errorf("SF blocked=%v, want %v", v.SF, s.BlockSF)
			}
			if !v.FullBlocked {
				t.Errorf("full BASTION did not block")
			}
		})
	}
}

// TestCETBlocksROP: the hardware shadow stack stops every return hijack in
// the ROP category before any syscall fires.
func TestCETBlocksROP(t *testing.T) {
	for _, s := range Catalog() {
		if s.Category != "rop" {
			continue
		}
		s := s
		t.Run(s.ID, func(t *testing.T) {
			out, err := Execute(s, DefCET)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if out.Completed {
				t.Fatalf("ROP completed under CET")
			}
			if out.KilledBy != "cet" {
				t.Fatalf("killed by %q (%s), want cet", out.KilledBy, out.Reason)
			}
		})
	}
}

// TestCFIMissesLegitFlowAttacks: the indirect attacks that reuse
// type-compatible, address-taken functions slip past coarse CFI — the
// paper's §10.3 point.
func TestCFIOutcomes(t *testing.T) {
	cases := map[string]bool{ // id -> expect CFI to block
		"ind-jujutsu":     false, // type-matched, address-taken: bypass
		"ind-aocr-nginx2": false, // legitimate control flow: bypass
		"ind-coop":        false, // no indirect call corruption: bypass
		"direct-cscfi":    true,  // raw stub is not address-taken
	}
	for id, expectBlock := range cases {
		s, ok := ByID(id)
		if !ok {
			t.Fatalf("no scenario %s", id)
		}
		out, err := Execute(s, DefCFI)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		blocked := out.KilledBy == "cfi"
		if blocked != expectBlock {
			t.Errorf("%s: CFI blocked=%v (by %q), want %v", id, blocked, out.KilledBy, expectBlock)
		}
		if !expectBlock && !out.Completed {
			t.Errorf("%s: expected completion under CFI, got killed by %q (%s)", id, out.KilledBy, out.Reason)
		}
	}
}
