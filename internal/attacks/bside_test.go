package attacks

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/binscan"
)

var update = flag.Bool("update", false, "rewrite golden files")

// bsideArtifact compiles the app's traced artifact, then replaces its
// policy with the one the binary-only extractor recovers from the
// instrumented program itself. Extracting from the instrumented program
// (rather than a raw build) keeps every instruction index the attack
// hooks aim at valid, and the extractor's projections are
// instrumentation-invariant, so the policy is the same one a raw-binary
// extraction yields.
func bsideArtifact(t *testing.T, app string) *core.Artifact {
	t.Helper()
	prog, err := BuildApp(app)
	if err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	art, err := core.Compile(prog, core.CompileOptions{})
	if err != nil {
		t.Fatalf("%s: compile: %v", app, err)
	}
	res, err := binscan.Extract(art.Prog)
	if err != nil {
		t.Fatalf("%s: extract: %v", app, err)
	}
	return &core.Artifact{Prog: art.Prog, Meta: res.Meta}
}

// verdict reduces an outcome to the matrix cell vocabulary.
func verdict(o Outcome) string {
	if o.Blocked() {
		return "caught"
	}
	if o.Completed {
		return "missed"
	}
	return "no-goal"
}

// TestBsideAttackMatrixGolden replays the full Table 6 catalog under the
// extracted (B-Side) policy with all contexts enabled, next to the
// compiler-traced baseline, and pins the caught/missed delta column
// byte-for-byte. "=" means both regimes agree, "-" marks an attack only
// the traced policy stops (the price of binary-only extraction), "+"
// would mark one only the extracted policy stops.
// Regenerate with: go test ./internal/attacks/ -run BsideAttackMatrix -update
func TestBsideAttackMatrixGolden(t *testing.T) {
	arts := map[string]*core.Artifact{}
	var b strings.Builder
	b.WriteString("b-side attack matrix: Table 6 catalog, traced vs extracted policy (all contexts)\n")
	fmt.Fprintf(&b, "  %-22s %-8s %-8s %-10s %s\n", "id", "app", "traced", "extracted", "delta")
	var caughtTraced, caughtExtracted, lost, gained int
	for _, s := range Catalog() {
		outT, err := Execute(s, DefAll)
		if err != nil {
			t.Fatalf("%s traced: %v", s.ID, err)
		}
		art := arts[s.App]
		if art == nil {
			art = bsideArtifact(t, s.App)
			arts[s.App] = art
		}
		env, err := LaunchArtifact(s.App, art, DefAll)
		if err != nil {
			t.Fatalf("%s extracted launch: %v", s.ID, err)
		}
		outB := Replay(s, env)

		vt, vb := verdict(outT), verdict(outB)
		delta := "="
		switch {
		case outT.Blocked() && !outB.Blocked():
			delta = "-"
			lost++
		case !outT.Blocked() && outB.Blocked():
			delta = "+"
			gained++
		}
		if outT.Blocked() {
			caughtTraced++
		}
		if outB.Blocked() {
			caughtExtracted++
		}
		fmt.Fprintf(&b, "  %-22s %-8s %-8s %-10s %s\n", s.ID, s.App, vt, vb, delta)
	}
	fmt.Fprintf(&b, "summary: %d scenarios, traced caught %d, extracted caught %d (%d lost, %d gained)\n",
		len(Catalog()), caughtTraced, caughtExtracted, lost, gained)

	got := b.String()
	path := filepath.Join("testdata", "bside_matrix.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("b-side matrix diverged from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestBsideLegitimateInit: the legitimate initialization phase of every
// catalog application — apache included, which the workload soundness
// gate does not cover — must run violation-free under the extracted
// policy in full enforcement mode.
func TestBsideLegitimateInit(t *testing.T) {
	for _, app := range []string{"nginx", "sqlite", "vsftpd", "apache"} {
		env, err := LaunchArtifact(app, bsideArtifact(t, app), DefAll)
		if err != nil {
			t.Fatalf("%s: launch under extracted policy: %v", app, err)
		}
		if env.LastErr != nil {
			t.Errorf("%s: legitimate init failed under extracted policy: %v", app, env.LastErr)
		}
		if len(env.P.Monitor.Violations) != 0 {
			t.Errorf("%s: legitimate init raised violations: %v", app, env.P.Monitor.Violations)
		}
	}
}
