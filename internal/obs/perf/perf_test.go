package perf

import (
	"math"
	"strings"
	"testing"
)

func fixtureArtifact() *Artifact {
	a := New("base", 120)
	// Added out of order on purpose: JSON must sort.
	a.Add("fig3.nginx.full.overhead_pct", 2.5, LowerIsBetter)
	a.Add("cache.nginx.hit_rate", 0.97, HigherIsBetter)
	a.Add("table5.nginx.ct_rules", 124, Exact)
	a.Add("init.nginx.avg_depth", 7.25, Info)
	return a
}

func TestArtifactJSONDeterministic(t *testing.T) {
	j1 := fixtureArtifact().JSON()
	j2 := fixtureArtifact().JSON()
	if j1 != j2 {
		t.Fatal("artifact JSON not byte-stable across identical builds")
	}
	// Sorted regardless of Add order.
	reversed := New("base", 120)
	reversed.Add("table5.nginx.ct_rules", 124, Exact)
	reversed.Add("init.nginx.avg_depth", 7.25, Info)
	reversed.Add("fig3.nginx.full.overhead_pct", 2.5, LowerIsBetter)
	reversed.Add("cache.nginx.hit_rate", 0.97, HigherIsBetter)
	if reversed.JSON() != j1 {
		t.Fatal("artifact JSON depends on Add order")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	src := fixtureArtifact()
	src.Add("edge.nan", math.NaN(), Info)
	src.Add("edge.pinf", math.Inf(1), Info)
	src.Add("edge.ninf", math.Inf(-1), Info)
	src.Add("edge.tiny", 1.0/3.0, LowerIsBetter)
	blob := src.JSON()
	got, err := Parse([]byte(blob))
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "base" || got.Units != 120 || got.Schema != SchemaVersion {
		t.Fatalf("header round trip: %+v", got)
	}
	if len(got.Metrics) != len(src.Metrics) {
		t.Fatalf("metric count %d, want %d", len(got.Metrics), len(src.Metrics))
	}
	for _, m := range src.Metrics {
		g, ok := got.Lookup(m.Name)
		if !ok {
			t.Fatalf("lost metric %q", m.Name)
		}
		if g.Dir != m.Dir || !sameValue(g.Value, m.Value) {
			t.Fatalf("%s: got %v/%v want %v/%v", m.Name, g.Value, g.Dir, m.Value, m.Dir)
		}
	}
	if got.JSON() != blob {
		t.Fatal("parse/render round trip not byte-identical")
	}
}

func TestParseRejectsBadArtifacts(t *testing.T) {
	cases := map[string]string{
		"wrong schema":  `{"schema":99,"label":"x","units":1,"metrics":[]}`,
		"bad direction": `{"schema":1,"label":"x","units":1,"metrics":[{"name":"a","dir":"sideways","value":1}]}`,
		"bad sentinel":  `{"schema":1,"label":"x","units":1,"metrics":[{"name":"a","dir":"info","value":"huge"}]}`,
		"dup names":     `{"schema":1,"label":"x","units":1,"metrics":[{"name":"a","dir":"info","value":1},{"name":"a","dir":"info","value":2}]}`,
		"empty name":    `{"schema":1,"label":"x","units":1,"metrics":[{"name":"","dir":"info","value":1}]}`,
		"unknown field": `{"schema":1,"label":"x","units":1,"wall_ms":5,"metrics":[]}`,
		"not json":      `schema: 1`,
	}
	for name, blob := range cases {
		if _, err := Parse([]byte(blob)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDirectionRoundTrip(t *testing.T) {
	for _, d := range []Direction{Info, LowerIsBetter, HigherIsBetter, Exact} {
		got, err := ParseDirection(d.String())
		if err != nil || got != d {
			t.Fatalf("direction %v round trip: %v, %v", d, got, err)
		}
	}
	if _, err := ParseDirection("bogus"); err == nil {
		t.Fatal("bogus direction accepted")
	}
}

func TestCompareSelfIsClean(t *testing.T) {
	res, err := Compare(fixtureArtifact(), fixtureArtifact(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || len(res.Regressions()) != 0 {
		t.Fatalf("self-compare regressed: %s", res.Render())
	}
	for _, d := range res.Deltas {
		if d.Status != Unchanged {
			t.Fatalf("self-compare delta %s = %s", d.Name, d.Status)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := fixtureArtifact()
	cur := fixtureArtifact()
	set := func(a *Artifact, name string, v float64) {
		for i := range a.Metrics {
			if a.Metrics[i].Name == name {
				a.Metrics[i].Value = v
				return
			}
		}
		t.Fatalf("no metric %q", name)
	}
	set(cur, "fig3.nginx.full.overhead_pct", 2.7) // +8% cost, beyond 5%
	set(cur, "cache.nginx.hit_rate", 0.90)        // -7.2% capacity, beyond 5%
	set(cur, "table5.nginx.ct_rules", 125)        // Exact drift
	set(cur, "init.nginx.avg_depth", 9)           // Info: changed, never gates
	res, err := Compare(base, cur, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("regressions not flagged")
	}
	want := map[string]DeltaStatus{
		"fig3.nginx.full.overhead_pct": Regressed,
		"cache.nginx.hit_rate":         Regressed,
		"table5.nginx.ct_rules":        Regressed,
		"init.nginx.avg_depth":         Changed,
	}
	for _, d := range res.Deltas {
		if got := want[d.Name]; d.Status != got {
			t.Errorf("%s: status %s, want %s", d.Name, d.Status, got)
		}
	}
	if n := len(res.Regressions()); n != 3 {
		t.Fatalf("regression count %d, want 3", n)
	}
	// Gating rows lead the table, worst first.
	for i, d := range res.Deltas[:3] {
		if !d.Status.Gates() {
			t.Fatalf("row %d (%s) not a gating row", i, d.Name)
		}
		if i > 0 && res.Deltas[i-1].Severity < d.Severity {
			t.Fatal("gating rows not sorted by severity")
		}
	}
}

func TestCompareToleranceBoundary(t *testing.T) {
	base := New("a", 10)
	base.Add("cost", 100, LowerIsBetter)
	within := New("b", 10)
	within.Add("cost", 105, LowerIsBetter) // exactly at 5%
	res, err := Compare(base, within, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatal("change exactly at tolerance must pass")
	}
	beyond := New("c", 10)
	beyond.Add("cost", 105.2, LowerIsBetter)
	res, err = Compare(base, beyond, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("change beyond tolerance must gate")
	}
	// Improvements beyond tolerance are reported, never gate.
	faster := New("d", 10)
	faster.Add("cost", 50, LowerIsBetter)
	res, err = Compare(base, faster, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Deltas[0].Status != Improved {
		t.Fatalf("improvement misclassified: %s", res.Render())
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	base := New("a", 10)
	base.Add("violations", 0, LowerIsBetter)
	cur := New("b", 10)
	cur.Add("violations", 1, LowerIsBetter)
	res, err := Compare(base, cur, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("cost appearing from a zero baseline must gate")
	}
	if !math.IsInf(res.Deltas[0].Severity, 1) {
		t.Fatalf("zero-baseline severity = %v, want +Inf", res.Deltas[0].Severity)
	}
}

func TestCompareMissingAndAdded(t *testing.T) {
	base := New("a", 10)
	base.Add("kept", 1, Exact)
	base.Add("dropped", 2, LowerIsBetter)
	cur := New("b", 10)
	cur.Add("kept", 1, Exact)
	cur.Add("fresh", 3, LowerIsBetter)
	res, err := Compare(base, cur, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("dropped metric must gate")
	}
	byName := map[string]DeltaStatus{}
	for _, d := range res.Deltas {
		byName[d.Name] = d.Status
	}
	if byName["dropped"] != Missing || byName["fresh"] != Added || byName["kept"] != Unchanged {
		t.Fatalf("statuses: %v", byName)
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare(New("a", 10), New("b", 20), 5); err == nil {
		t.Fatal("unit-count mismatch accepted")
	}
	if _, err := Compare(New("a", 10), New("b", 10), -1); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

func TestRenderDeterministicAndReadable(t *testing.T) {
	base := fixtureArtifact()
	cur := fixtureArtifact()
	cur.Metrics[0].Value *= 2
	res1, err := Compare(base, cur, 5)
	if err != nil {
		t.Fatal(err)
	}
	res2, _ := Compare(fixtureArtifact(), cur, 5)
	if res1.Render() != res2.Render() {
		t.Fatal("diff rendering not deterministic")
	}
	out := res1.Render()
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "1 regression(s)") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestDetectEWMA(t *testing.T) {
	// Flat stream: nothing flags.
	flat := make([]uint64, 64)
	for i := range flat {
		flat[i] = 1000
	}
	if got := DetectEWMA(flat, AnomalyConfig{}); len(got) != 0 {
		t.Fatalf("flat stream flagged: %v", got)
	}
	// One spike past warmup flags exactly once, with the pre-spike mean.
	spiked := append([]uint64{}, flat...)
	spiked[40] = 10000
	got := DetectEWMA(spiked, AnomalyConfig{})
	if len(got) != 1 || got[0].Index != 40 || got[0].Value != 10000 {
		t.Fatalf("spike detection: %v", got)
	}
	if got[0].Mean != 1000 {
		t.Fatalf("recorded mean %v, want 1000", got[0].Mean)
	}
	// The same spike inside warmup does not flag.
	early := append([]uint64{}, flat...)
	early[3] = 10000
	if got := DetectEWMA(early, AnomalyConfig{}); len(got) != 0 {
		t.Fatalf("warmup spike flagged: %v", got)
	}
	// Deterministic across runs.
	a := DetectEWMA(spiked, AnomalyConfig{})
	b := DetectEWMA(spiked, AnomalyConfig{})
	if len(a) != len(b) || a[0] != b[0] {
		t.Fatal("EWMA detection not deterministic")
	}
	// A step change flags at the step, then the mean adapts and stops
	// flagging.
	step := append([]uint64{}, flat...)
	for i := 32; i < len(step); i++ {
		step[i] = 8000
	}
	got = DetectEWMA(step, AnomalyConfig{})
	if len(got) == 0 || got[0].Index != 32 {
		t.Fatalf("step not flagged at onset: %v", got)
	}
	if last := got[len(got)-1].Index; last > 40 {
		t.Fatalf("mean failed to adapt; still flagging at %d", last)
	}
	// Empty stream.
	if got := DetectEWMA(nil, AnomalyConfig{}); got != nil {
		t.Fatalf("nil stream: %v", got)
	}
}
