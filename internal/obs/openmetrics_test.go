package obs

import (
	"strings"
	"testing"
)

func TestRenderOpenMetricsGolden(t *testing.T) {
	checkGolden(t, "metrics.om.golden", fixtureRegistry().RenderOpenMetrics())
}

func TestRenderOpenMetricsDeterministic(t *testing.T) {
	a, b := fixtureRegistry(), fixtureRegistry()
	if a.RenderOpenMetrics() != b.RenderOpenMetrics() {
		t.Fatal("OpenMetrics rendering not deterministic across identical builds")
	}
}

// TestRenderOpenMetricsReadOnly: exposition is a pure read — rendering
// must not disturb the registry's own text rendering.
func TestRenderOpenMetricsReadOnly(t *testing.T) {
	r := fixtureRegistry()
	before := r.Render()
	_ = r.RenderOpenMetrics()
	if r.Render() != before {
		t.Fatal("RenderOpenMetrics modified the registry")
	}
}

// TestRenderOpenMetricsBracketedHistogram: per-key histograms registered
// as `base[label]` must join one family with a `key` label, after the
// unlabeled base histogram.
func TestRenderOpenMetricsBracketedHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("trap_cycles", []uint64{10, 20}).Observe(5)
	r.Histogram("trap_cycles[mmap]", []uint64{10, 20}).Observe(15)
	r.Histogram("trap_cycles[accept4]", []uint64{10, 20}).Observe(25)
	got := r.RenderOpenMetrics()
	want := `# TYPE trap_cycles histogram
trap_cycles_bucket{le="10"} 1
trap_cycles_bucket{le="20"} 1
trap_cycles_bucket{le="+Inf"} 1
trap_cycles_sum 5
trap_cycles_count 1
trap_cycles_bucket{le="10",key="accept4"} 0
trap_cycles_bucket{le="20",key="accept4"} 0
trap_cycles_bucket{le="+Inf",key="accept4"} 1
trap_cycles_sum{key="accept4"} 25
trap_cycles_count{key="accept4"} 1
trap_cycles_bucket{le="10",key="mmap"} 0
trap_cycles_bucket{le="20",key="mmap"} 1
trap_cycles_bucket{le="+Inf",key="mmap"} 1
trap_cycles_sum{key="mmap"} 15
trap_cycles_count{key="mmap"} 1
# EOF
`
	if got != want {
		t.Fatalf("bracketed histogram family:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// One TYPE line per family, not per labeled member.
	if n := strings.Count(got, "# TYPE"); n != 1 {
		t.Fatalf("want 1 TYPE line, got %d", n)
	}
}

// TestRenderOpenMetricsCumulativeBuckets: `le` samples are cumulative and
// the +Inf bucket equals the count, per the exposition format.
func TestRenderOpenMetricsCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []uint64{10, 20})
	for _, v := range []uint64{1, 2, 15, 99} {
		h.Observe(v)
	}
	got := r.RenderOpenMetrics()
	for _, line := range []string{
		`h_bucket{le="10"} 2`,
		`h_bucket{le="20"} 3`,
		`h_bucket{le="+Inf"} 4`,
		`h_sum 117`,
		`h_count 4`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, got)
		}
	}
}

func TestMetricNameSanitizes(t *testing.T) {
	cases := map[string]string{
		"monitor_hooks_total": "monitor_hooks_total",
		"ns:metric":           "ns:metric",
		"bad.name-1":          "bad_name_1",
	}
	for in, want := range cases {
		if got := metricName(in); got != want {
			t.Errorf("metricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLabelEscape(t *testing.T) {
	in := "a\\b\"c\nd"
	want := `a\\b\"c\nd`
	if got := labelEscape(in); got != want {
		t.Fatalf("labelEscape = %q, want %q", got, want)
	}
	if got := labelEscape("plain"); got != "plain" {
		t.Fatalf("labelEscape(plain) = %q", got)
	}
}

func TestSplitBracket(t *testing.T) {
	cases := []struct {
		in, base, label string
	}{
		{"trap_cycles", "trap_cycles", ""},
		{"trap_cycles[mmap]", "trap_cycles", "mmap"},
		{"odd[", "odd[", ""},
	}
	for _, tc := range cases {
		base, label := splitBracket(tc.in)
		if base != tc.base || label != tc.label {
			t.Errorf("splitBracket(%q) = (%q, %q), want (%q, %q)", tc.in, base, label, tc.base, tc.label)
		}
	}
}
