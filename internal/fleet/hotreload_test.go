package fleet

import (
	"reflect"
	"strings"
	"testing"

	"bastion/internal/core/monitor"
	"bastion/internal/obs"
)

// verdictTuple is the policy-visible outcome of one trap, independent of
// cycle timing.
type verdictTuple struct {
	nr             uint32
	name           string
	ct, cf, ai, sf obs.Verdict
	violation      string
}

func tupleOf(e obs.TrapEvent) verdictTuple {
	return verdictTuple{
		nr:        e.Nr,
		name:      e.Name,
		ct:        e.CT,
		cf:        e.CF,
		ai:        e.AI,
		sf:        e.SF,
		violation: e.Violation,
	}
}

// TestHotReloadDifferential is the generation-stamped differential suite:
// a fleet that hot-reloads its policy mid-run is compared against two
// pinned fleets — one running the launch policy end to end, one running
// the reload policy end to end.
//
//   - Every event the reloaded run stamps generation 0 (including the
//     boundary trap the swap rides) is BYTE-identical to the pinned
//     generation-0 run's event at the same position: staging a reload
//     perturbs nothing before it applies.
//   - Every generation-1 event's verdict tuple matches the pinned
//     generation-1 run's event at the same position: after the swap,
//     verdicts are exactly what a fleet launched under the new policy
//     would issue.
//   - Generations are monotone per tenant — no event under the old
//     generation after the first event under the new one, which together
//     with the monitor's torn-policy test rules out mixed-generation
//     judgments.
//
// The reload spec keeps the trapped syscall set identical (it toggles
// the tree filter and drops the SF context, neither of which changes
// which syscalls trap), so events align position-by-position.
func TestHotReloadDifferential(t *testing.T) {
	const units, reloadAt = 8, 4
	base := DefaultConfig(3, units)
	base.Seed = 21
	base.Trace = true
	base.Deterministic = true

	spec := &PolicySpec{
		Contexts:    monitor.CallType | monitor.ControlFlow | monitor.ArgIntegrity,
		UseContexts: true,
		TreeFilter:  true,
	}

	reloaded := base
	reloaded.ReloadAt = reloadAt
	reloaded.ReloadSpec = spec
	rep, err := Run(reloaded)
	if err != nil {
		t.Fatal(err)
	}

	pin0, err := Run(base) // launch policy, end to end
	if err != nil {
		t.Fatal(err)
	}

	pin1cfg := base // reload policy, end to end
	pin1cfg.Contexts = spec.Contexts
	pin1cfg.UseContexts = true
	pin1cfg.TreeFilter = spec.TreeFilter
	pin1, err := Run(pin1cfg)
	if err != nil {
		t.Fatal(err)
	}

	for i := range rep.Results {
		res := &rep.Results[i]
		if res.Units != units || res.Restarts != 0 || res.Dead {
			t.Fatalf("tenant %d did not sail through the reload: %+v", i, res)
		}
		if res.Reloads != 1 || res.Gen != 1 || res.ReloadCycles == 0 {
			t.Fatalf("tenant %d reload accounting: reloads=%d gen=%d cycles=%d",
				i, res.Reloads, res.Gen, res.ReloadCycles)
		}

		ev := res.Events
		split := len(ev)
		for j, e := range ev {
			switch e.Gen {
			case 0:
				if j > split {
					t.Fatalf("tenant %d: generation-0 event at %d after the swap at %d", i, j, split)
				}
			case 1:
				if split == len(ev) {
					split = j
				}
			default:
				t.Fatalf("tenant %d event %d under unknown generation %d", i, j, e.Gen)
			}
		}
		if split == 0 || split == len(ev) {
			t.Fatalf("tenant %d: swap boundary not inside the trace (split=%d of %d)", i, split, len(ev))
		}

		p0 := pin0.Results[i].Events
		if len(p0) < split {
			t.Fatalf("tenant %d: pinned gen-0 trace shorter (%d) than reloaded prefix (%d)", i, len(p0), split)
		}
		if !reflect.DeepEqual(ev[:split], p0[:split]) {
			t.Errorf("tenant %d: generation-0 prefix diverges from pinned gen-0 run", i)
		}

		p1 := pin1.Results[i].Events
		if len(p1) != len(ev) {
			t.Fatalf("tenant %d: trapped sets diverge (%d events reloaded, %d pinned gen-1)", i, len(ev), len(p1))
		}
		for j := split; j < len(ev); j++ {
			if got, want := tupleOf(ev[j]), tupleOf(p1[j]); got != want {
				t.Errorf("tenant %d event %d: verdicts %+v diverge from pinned gen-1 %+v", i, j, got, want)
			}
		}
	}

	if rep.Reloads() != uint64(base.Tenants) {
		t.Errorf("fleet applied %d reloads, want %d", rep.Reloads(), base.Tenants)
	}
	md := rep.Markdown()
	if !strings.Contains(md, "Hot reload: staged at unit 4") {
		t.Errorf("report omits the hot-reload line:\n%s", md)
	}
}

// TestHotReloadDeterministic: the reloaded fleet is itself byte-stable
// across reruns and across concurrent vs serial dispatch.
func TestHotReloadDeterministic(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	cfg.Seed = 33
	cfg.Trace = true
	cfg.ReloadAt = 3
	cfg.ReloadSpec = &PolicySpec{TreeFilter: true}
	cfg.Shards = 2

	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Markdown() != r2.Markdown() {
		t.Fatal("reloaded fleet report not deterministic")
	}
	det := cfg
	det.Deterministic = true
	r3, err := Run(det)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Markdown() != r3.Markdown() {
		t.Fatal("reloaded fleet differs between concurrent and serial dispatch")
	}
}

// TestHotReloadSurvivesRestart: an incarnation that crashes after the
// reload point re-stages the generation at its next launch, so the
// replacement monitor comes up on fleet policy (one extra swap, same
// final generation).
func TestHotReloadSurvivesRestart(t *testing.T) {
	cfg := DefaultConfig(1, 8, "nginx")
	cfg.Deterministic = true
	cfg.ReloadAt = 4
	cfg.ReloadSpec = &PolicySpec{}
	cfg.FaultAt = map[int]int{0: 6}

	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Units != cfg.Units || res.Faults != 1 || res.Restarts != 1 {
		t.Fatalf("restart path off: %+v", res)
	}
	if res.Reloads != 2 {
		t.Errorf("reloads = %d, want 2 (original swap + post-restart re-stage)", res.Reloads)
	}
	if res.Gen != 1 {
		t.Errorf("final generation %d, want 1", res.Gen)
	}
}
