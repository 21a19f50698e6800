package bench

import (
	"strings"
	"testing"

	"bastion/internal/obs/perf"
)

// TestPerfArtifact collects one small report and drives the whole
// artifact contract off it: byte determinism (serial vs parallel
// collection), schema round trip, self-compare cleanliness, and the
// regression gate firing on injected drift.
func TestPerfArtifact(t *testing.T) {
	seq := collect(t, 8, 1)
	par := collect(t, 8, 0)

	t.Run("byte-deterministic", func(t *testing.T) {
		j1 := seq.PerfArtifact("ci").JSON()
		j2 := seq.PerfArtifact("ci").JSON()
		if j1 != j2 {
			t.Fatal("artifact not byte-stable across renders of the same report")
		}
		if par.PerfArtifact("ci").JSON() != j1 {
			t.Fatal("artifact differs between serial and parallel collection")
		}
	})

	t.Run("round-trip", func(t *testing.T) {
		blob := seq.PerfArtifact("ci").JSON()
		parsed, err := perf.Parse([]byte(blob))
		if err != nil {
			t.Fatal(err)
		}
		if parsed.Units != 8 || parsed.Label != "ci" {
			t.Fatalf("header: %+v", parsed)
		}
		if parsed.JSON() != blob {
			t.Fatal("parse/render round trip not byte-identical")
		}
	})

	t.Run("covers-every-experiment", func(t *testing.T) {
		a := seq.PerfArtifact("ci")
		stems := []string{
			"fig3.", "table3.", "table4.", "table5.", "table6.", "table7.",
			"init.", "accept.", "inkernel.", "filter.", "sf.",
			"offload.", "refine.", "bside.", "obs.", "fleet.",
		}
		for _, stem := range stems {
			found := false
			for i := range a.Metrics {
				if strings.HasPrefix(a.Metrics[i].Name, stem) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("artifact has no %q metrics", stem)
			}
		}
		// Wall-clock timings must never leak into the artifact.
		blob := a.JSON()
		if strings.Contains(blob, "wall") || strings.Contains(blob, "elapsed") {
			t.Fatal("wall-clock data leaked into the artifact")
		}
		// Every fleet row lands (fixed-width stems keep numeric order).
		for _, stem := range []string{"fleet.t001.", "fleet.t004.", "fleet.t016.", "fleet.t064."} {
			if _, ok := a.Lookup(stem + "throughput"); !ok {
				t.Errorf("missing %sthroughput", stem)
			}
		}
	})

	t.Run("self-compare-clean", func(t *testing.T) {
		res, err := perf.Compare(seq.PerfArtifact("old"), par.PerfArtifact("new"), 5)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("self-compare regressed:\n%s", res.Render())
		}
	})

	t.Run("gate-fires-on-injected-regression", func(t *testing.T) {
		base := seq.PerfArtifact("base")
		cur := seq.PerfArtifact("cur")
		bumped := 0
		for i := range cur.Metrics {
			m := &cur.Metrics[i]
			switch {
			case m.Dir == perf.LowerIsBetter && m.Value > 0 && bumped == 0:
				m.Value *= 1.10 // +10% cost, beyond the 5% tolerance
				bumped++
			case m.Dir == perf.Exact && strings.HasPrefix(m.Name, "table6.") && bumped == 1:
				m.Value = 1 - m.Value // flip a verdict bit
				bumped++
			}
		}
		if bumped != 2 {
			t.Fatalf("injected %d regressions, want 2", bumped)
		}
		res, err := perf.Compare(base, cur, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.OK() || len(res.Regressions()) != 2 {
			t.Fatalf("gate missed injected regressions:\n%s", res.Render())
		}
	})
}

func TestMitSlugCoversAllMitigations(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Mitigations {
		s := mitSlug(m)
		if s == "unknown" || seen[s] {
			t.Fatalf("mitigation %v slug %q invalid or duplicated", m, s)
		}
		seen[s] = true
	}
}

func TestFleetStem(t *testing.T) {
	cases := map[int]string{1: "fleet.t001.", 16: "fleet.t016.", 64: "fleet.t064.", 999: "fleet.t999."}
	for in, want := range cases {
		if got := fleetStem(in); got != want {
			t.Errorf("fleetStem(%d) = %q, want %q", in, got, want)
		}
	}
}
