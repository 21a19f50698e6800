package attacks

import (
	"fmt"
	"strings"
	"testing"
)

// TestRefinedPoliciesPreserveVerdicts replays the full Table 6 matrix with
// the points-to–refined AllowedIndirect sets against the coarse
// address-taken baseline: every outcome — completion, kill, killer, and
// kill reason — must be byte-identical under every monitor defense.
// Refinement only removes statically impossible edges, so no attack may
// newly pass and no legitimate path may newly violate.
func TestRefinedPoliciesPreserveVerdicts(t *testing.T) {
	defenses := []Defense{DefCT, DefCF, DefAI, DefAll}
	for _, s := range Catalog() {
		for _, d := range defenses {
			refined := d
			refined.Coarse = false
			coarse := d
			coarse.Coarse = true

			outR, err := Execute(s, refined)
			if err != nil {
				t.Fatalf("%s under %s (refined): %v", s.ID, d.Name, err)
			}
			outC, err := Execute(s, coarse)
			if err != nil {
				t.Fatalf("%s under %s (coarse): %v", s.ID, d.Name, err)
			}
			r := fmt.Sprintf("%+v", outR)
			c := fmt.Sprintf("%+v", outC)
			if r != c {
				t.Errorf("%s under %s: verdict diverged\nrefined: %s\ncoarse:  %s", s.ID, d.Name, r, c)
			}
		}
	}
}

// TestRefinedPoliciesPreserveLegitimateInit: the legitimate application
// initialization phase (which drives every app's real indirect calls) must
// run violation-free under the refined policies in full enforcement mode.
func TestRefinedPoliciesPreserveLegitimateInit(t *testing.T) {
	for _, app := range []string{"nginx", "sqlite", "vsftpd", "apache"} {
		env, err := Launch(app, DefAll)
		if err != nil {
			t.Fatalf("%s: launch under refined policies: %v", app, err)
		}
		if env.LastErr != nil {
			t.Errorf("%s: legitimate init failed under refined policies: %v", app, env.LastErr)
		}
		if env.P.Machine.Halted() {
			t.Errorf("%s: guest halted during legitimate init", app)
		}
		if len(env.P.Monitor.Violations) != 0 {
			t.Errorf("%s: legitimate init raised violations: %v", app, env.P.Monitor.Violations)
		}
	}
}

// TestTable6RenderIdenticalCoarseVsRefined locks the strongest form of the
// acceptance criterion: the rendered Table 6 markdown (every verdict cell)
// is byte-identical whether the monitor enforces coarse or refined
// policies. Rendering goes through the same Evaluate path the report uses.
func TestTable6RenderIdenticalCoarseVsRefined(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix replay")
	}
	render := func(coarse bool) string {
		var b strings.Builder
		for _, s := range Catalog() {
			for _, d := range []Defense{DefCT, DefCF, DefAI, DefAll} {
				d.Coarse = coarse
				out, err := Execute(s, d)
				if err != nil {
					t.Fatalf("%s under %s: %v", s.ID, d.Name, err)
				}
				fmt.Fprintf(&b, "%s|%s|%v|%v|%s|%s\n", s.ID, d.Name, out.Completed, out.Killed, out.KilledBy, out.Reason)
			}
		}
		return b.String()
	}
	if r, c := render(false), render(true); r != c {
		t.Error("Table 6 verdict matrix differs between coarse and refined policies")
	}
}
