package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureEvents is a small, fixed decision trace exercising every field:
// a pass, a pass with pointee bytes, a fast-path pass, and a violation.
func fixtureEvents() []TrapEvent {
	return []TrapEvent{
		{
			Seq: 0, Tenant: 0, Nr: 9, Name: "mmap", Start: 1000, End: 4792,
			CT: VerdictPass, CF: VerdictPass, AI: VerdictPass,
			Cycles:      CycleBreakdown{Fetch: 2700, Unwind: 640, CT: 60, CF: 210, AI: 182},
			UnwindDepth: 3,
		},
		{
			Seq: 1, Tenant: 0, Nr: 59, Name: "execve", Start: 6000, End: 11286,
			CT: VerdictPass, CF: VerdictPass, AI: VerdictPass,
			Cycles:       CycleBreakdown{Fetch: 2700, Unwind: 860, CT: 60, CF: 280, AI: 1386},
			UnwindDepth:  4,
			PointeeBytes: 9,
		},
		{
			Seq: 2, Tenant: 1, Nr: 288, Name: "accept4", Start: 15000, End: 17925,
			CT: VerdictPass, CF: VerdictPass, AI: VerdictPass,
			Cycles:      CycleBreakdown{Fetch: 2700, Unwind: 100, CT: 60, CF: 35, AI: 30},
			UnwindDepth: 1,
		},
		{
			Seq: 3, Tenant: 1, Nr: 10, Name: "mprotect", Start: 21000, End: 24480,
			CT: VerdictPass, CF: VerdictViolation, AI: VerdictSkip,
			Cycles:      CycleBreakdown{Fetch: 2700, Unwind: 640, CT: 60, CF: 80, AI: 0},
			UnwindDepth: 3,
			Violation:   "control-flow violation on mprotect: return address 0x999 is not a callsite",
		},
	}
}

func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestJSONLExporterGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteJSONL(&b, fixtureEvents()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.jsonl.golden", b.String())
}

func TestChromeExporterGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteChrome(&b, fixtureEvents()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.chrome.golden", b.String())
}

func TestExportersDeterministic(t *testing.T) {
	render := func() (string, string) {
		var j, c strings.Builder
		if err := WriteJSONL(&j, fixtureEvents()); err != nil {
			t.Fatal(err)
		}
		if err := WriteChrome(&c, fixtureEvents()); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := render()
	j2, c2 := render()
	if j1 != j2 || c1 != c2 {
		t.Fatal("exporters not byte-deterministic across identical event sequences")
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	events := fixtureEvents()
	for i := range events {
		f.Add(&events[i])
	}
	got := f.Events()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	// Oldest (seq 0) evicted; order preserved oldest-first.
	for i, want := range []uint64{1, 2, 3} {
		if got[i].Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, got[i].Seq, want)
		}
	}
	if got[2].Violation == "" {
		t.Error("violating trap must be the final recorded event")
	}
	var b strings.Builder
	if err := WriteJSONL(&b, got); err != nil {
		t.Fatal(err)
	}
	if f.DumpJSONL() != b.String() {
		t.Error("DumpJSONL and WriteJSONL disagree")
	}
}

func TestFlightRecorderPartial(t *testing.T) {
	f := NewFlightRecorder(8)
	events := fixtureEvents()
	for i := range events[:2] {
		f.Add(&events[i])
	}
	got := f.Events()
	if len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 1 {
		t.Fatalf("partial ring = %+v", got)
	}
}

func TestVerdictStrings(t *testing.T) {
	if VerdictSkip.String() != "skip" || VerdictPass.String() != "pass" ||
		VerdictViolation.String() != "violation" {
		t.Fatal("verdict strings")
	}
	if Verdict(9).String() != "verdict(9)" {
		t.Fatal("unknown enum strings")
	}
}
