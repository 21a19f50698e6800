package audit

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"bastion/internal/core"
	"bastion/internal/workload"
)

func auditApp(t *testing.T, app string) *Report {
	t.Helper()
	target, err := workload.NewTarget(app)
	if err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	art, err := core.Compile(target.Build(), core.CompileOptions{})
	if err != nil {
		t.Fatalf("%s: compile: %v", app, err)
	}
	return Run(app, art.Prog, art.Meta)
}

// TestRenderJSONGolden pins the machine-readable nginx report
// byte-for-byte. Regenerate with:
// go test ./internal/audit/ -run RenderJSONGolden -update
func TestRenderJSONGolden(t *testing.T) {
	got, err := auditApp(t, "nginx").RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "nginx_audit.json.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON report diverged from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRenderJSONWellFormed: the encoding parses back, mirrors the text
// report's counts, and is byte-stable across independent audits.
func TestRenderJSONWellFormed(t *testing.T) {
	for _, app := range workload.Apps {
		rep := auditApp(t, app)
		data, err := rep.RenderJSON()
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		var back struct {
			App      string `json:"app"`
			Errors   int    `json:"errors"`
			Findings []struct {
				Code     string `json:"code"`
				Severity string `json:"severity"`
			} `json:"findings"`
			Residual []struct {
				Nr uint32 `json:"nr"`
			} `json:"residual"`
		}
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: output is not valid JSON: %v", app, err)
		}
		if back.App != app || back.Errors != rep.Errors() ||
			len(back.Findings) != len(rep.Findings) || len(back.Residual) != len(rep.Residual) {
			t.Errorf("%s: JSON disagrees with report: %+v", app, back)
		}
		again, err := auditApp(t, app).RenderJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s: JSON render not byte-stable", app)
		}
	}
}

// TestRenderJSONEmptySlices: a finding-free report must encode findings
// as [] rather than null so downstream parsers see arrays unconditionally.
func TestRenderJSONEmptySlices(t *testing.T) {
	data, err := (&Report{App: "empty"}).RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"findings": []`)) || !bytes.Contains(data, []byte(`"residual": []`)) {
		t.Errorf("empty report does not encode empty arrays:\n%s", data)
	}
}
