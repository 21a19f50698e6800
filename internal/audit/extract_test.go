package audit

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/binscan"
	"bastion/internal/core/metadata"
	"bastion/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// diffApp compiles the traced ground truth and extracts the binary-only
// policy from a fresh raw build of the same app, then diffs them.
func diffApp(t *testing.T, app string) *ExtractReport {
	t.Helper()
	target, err := workload.NewTarget(app)
	if err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	art, err := core.Compile(target.Build(), core.CompileOptions{})
	if err != nil {
		t.Fatalf("%s: compile: %v", app, err)
	}
	target2, err := workload.NewTarget(app)
	if err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	res, err := binscan.Extract(target2.Build())
	if err != nil {
		t.Fatalf("%s: extract: %v", app, err)
	}
	return DiffExtracted(app, art.Meta, res.Meta)
}

// TestExtractRecallIsTotal: for CT, CF, and SF the extraction must
// recover every compiler-traced fact — a recall miss there means the
// extracted policy rejects behavior ground truth allows, which is exactly
// the unsoundness the B-Side regime must not introduce.
func TestExtractRecallIsTotal(t *testing.T) {
	for _, app := range workload.Apps {
		rep := diffApp(t, app)
		for _, row := range rep.Rows {
			if row.Context == "AI" {
				continue
			}
			if row.Recall() != 1 {
				t.Errorf("%s: %s recall %.3f, want 1.000", app, row.Context, row.Recall())
			}
		}
		if n := rep.Errors(); n != 0 {
			t.Errorf("%s: %d error finding(s) in extraction diff; first lines:\n%s",
				app, n, rep.Render())
		}
	}
}

// TestExtractReportGolden pins the full three-app precision/recall report
// byte-for-byte. Regenerate with:
// go test ./internal/audit/ -run ExtractReportGolden -update
func TestExtractReportGolden(t *testing.T) {
	var b strings.Builder
	for _, app := range workload.Apps {
		b.WriteString(diffApp(t, app).Render())
	}
	got := b.String()
	path := filepath.Join("testdata", "bside_report.golden")
	if *update {
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
		t.Errorf("extraction report diverged from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExtractReportDeterministic: two independent compile+extract+diff
// passes must render identical bytes.
func TestExtractReportDeterministic(t *testing.T) {
	if diffApp(t, "nginx").Render() != diffApp(t, "nginx").Render() {
		t.Fatal("extraction report not deterministic")
	}
}

// TestDiffExtractedDirections: a synthetic pair exercising both diff
// directions and the per-context severity rules.
func TestDiffExtractedDirections(t *testing.T) {
	traced := metadata.New()
	traced.CallTypes[0] = metadata.CallType{Nr: 0, Name: "read", Wrapper: "read", Direct: true}
	traced.CallTypes[1] = metadata.CallType{Nr: 1, Name: "write", Wrapper: "write", Direct: true}
	extracted := metadata.New()
	extracted.CallTypes[0] = metadata.CallType{Nr: 0, Name: "read", Wrapper: "read", Direct: true}
	extracted.CallTypes[2] = metadata.CallType{Nr: 2, Name: "open", Wrapper: "open", Direct: true}

	rep := DiffExtracted("synthetic", traced, extracted)
	var missing, extra *Finding
	for i := range rep.Findings {
		switch rep.Findings[i].Code {
		case CodeBsideCTMissing:
			missing = &rep.Findings[i]
		case CodeBsideCTExtra:
			extra = &rep.Findings[i]
		}
	}
	if missing == nil || missing.Severity != SevError || !strings.Contains(missing.Location, "write") {
		t.Errorf("missing traced CT fact not reported as error: %+v", missing)
	}
	if extra == nil || extra.Severity != SevWarn || !strings.Contains(extra.Location, "open") {
		t.Errorf("extra extracted CT fact not reported as warning: %+v", extra)
	}
	if len(rep.Rows) != len(binscan.Contexts) {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), len(binscan.Contexts))
	}
	ct := rep.Rows[0]
	if ct.Context != "CT" || ct.Traced != 2 || ct.Extracted != 2 || ct.Common != 1 {
		t.Errorf("CT row = %+v, want traced=2 extracted=2 common=1", ct)
	}
	if ct.Precision() != 0.5 || ct.Recall() != 0.5 {
		t.Errorf("CT precision/recall = %.3f/%.3f, want 0.5/0.5", ct.Precision(), ct.Recall())
	}
}
