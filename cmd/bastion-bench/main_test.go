package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bastion/internal/obs/perf"
)

// defaults mirrors the flag defaults for building test cases.
func defaults() options {
	return options{exp: "all", units: 120, format: "md", label: "bench", tolerance: 5}
}

func TestValidateFlagCombinations(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr string // substring; "" means valid
	}{
		{"defaults", func(o *options) {}, ""},
		{"single experiment", func(o *options) { o.exp = "offload" }, ""},
		{"json artifact", func(o *options) { o.format = "json"; o.out = "a.json" }, ""},
		{"gate while emitting", func(o *options) {
			o.format = "json"
			o.out = "a.json"
			o.baseline = "b.json"
		}, ""},
		{"offline compare", func(o *options) { o.baseline = "b.json"; o.compare = "a.json" }, ""},
		{"zero tolerance", func(o *options) { o.baseline = "b.json"; o.tolerance = 0 }, ""},

		{"bad units", func(o *options) { o.units = 0 }, "-units"},
		{"bad workers", func(o *options) { o.workers = 0; o.workersSet = true }, "-workers"},
		{"exp typo", func(o *options) { o.exp = "ofload" }, `unknown -exp "ofload"`},
		{"bad format", func(o *options) { o.format = "yaml" }, "-format"},
		{"json without out", func(o *options) { o.format = "json" }, "-out"},
		{"out without json", func(o *options) { o.out = "a.json" }, "-format json"},
		{"json with report", func(o *options) {
			o.format = "json"
			o.out = "a.json"
			o.report = "r.md"
		}, "mutually exclusive"},
		{"negative tolerance", func(o *options) { o.baseline = "b.json"; o.tolerance = -1 }, "-tolerance"},
		{"compare without baseline", func(o *options) { o.compare = "a.json" }, "-baseline"},
		{"partial artifact", func(o *options) {
			o.exp = "fig3"
			o.format = "json"
			o.out = "a.json"
		}, "full report"},
		{"partial gate", func(o *options) { o.exp = "sf"; o.baseline = "b.json" }, "full report"},
	}
	for _, tc := range cases {
		o := defaults()
		tc.mutate(&o)
		err := o.validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestExpTypoNamesValidSet: the error for an unknown experiment must list
// the valid names so the fix is in the message.
func TestExpTypoNamesValidSet(t *testing.T) {
	o := defaults()
	o.exp = "tables"
	err := o.validate()
	if err == nil {
		t.Fatal("typo accepted")
	}
	for _, name := range []string{"fig3", "offload", "shard", "extras"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %q: %v", name, err)
		}
	}
}

func TestWorkerCount(t *testing.T) {
	o := defaults()
	if o.workerCount() != 1 {
		t.Fatal("serial default")
	}
	o.parallel = true
	o.workers = 3
	if o.workerCount() != 3 {
		t.Fatal("explicit workers")
	}
	o.workers = 0
	if o.workerCount() < 1 {
		t.Fatal("NumCPU fallback")
	}
}

// TestDiffArtifacts drives the offline-compare path against real files:
// self-compare passes, an injected regression gates, and load errors
// surface with the file path.
func TestDiffArtifacts(t *testing.T) {
	dir := t.TempDir()
	base := perf.New("base", 8)
	base.Add("cost", 100, perf.LowerIsBetter)
	basePath := filepath.Join(dir, "base.json")
	if err := os.WriteFile(basePath, []byte(base.JSON()), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := diffArtifacts(basePath, basePath, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("self-compare regressed:\n%s", res.Render())
	}

	worse := perf.New("worse", 8)
	worse.Add("cost", 120, perf.LowerIsBetter)
	worsePath := filepath.Join(dir, "worse.json")
	if err := os.WriteFile(worsePath, []byte(worse.JSON()), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = diffArtifacts(basePath, worsePath, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("regression not gated")
	}

	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := diffArtifacts(basePath, badPath, 5); err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Fatalf("load error does not name the file: %v", err)
	}
	if _, err := diffArtifacts(filepath.Join(dir, "absent.json"), basePath, 5); err == nil {
		t.Fatal("missing baseline accepted")
	}
}
