package monitor_test

// Differential attack-matrix suite: the on-disk artifact path must be
// observationally invisible. Policy artifacts reach a monitor as JSON
// sidecars (bastion-exec, bastion-extract output, hot reload), so for
// every attack in the Table 6 catalog and every benchmark workload, a
// monitor judging from metadata that went through Marshal and Unmarshal
// must report byte-identical violation sets, identical kill decisions,
// identical ViolatedContexts and identical cycle accounts to one judging
// from the compiler's in-memory metadata — across every context set and
// monitor mode.

import (
	"fmt"
	"testing"

	"bastion/internal/attacks"
	"bastion/internal/baseline/cet"
	"bastion/internal/core"
	"bastion/internal/core/metadata"
	"bastion/internal/core/monitor"
	"bastion/internal/fleet"
	"bastion/internal/kernel"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// observation is everything externally visible about one monitored run.
type observation struct {
	completed  bool
	killed     bool
	killedBy   string
	reason     string
	violations []string
	violated   monitor.Context
}

func (o observation) equal(other observation) bool {
	if o.completed != other.completed || o.killed != other.killed ||
		o.killedBy != other.killedBy || o.reason != other.reason ||
		o.violated != other.violated || len(o.violations) != len(other.violations) {
		return false
	}
	for i := range o.violations {
		if o.violations[i] != other.violations[i] {
			return false
		}
	}
	return true
}

func (o observation) String() string {
	return fmt.Sprintf("completed=%v killed=%v by=%q reason=%q violated=%v violations=%v",
		o.completed, o.killed, o.killedBy, o.reason, o.violated, o.violations)
}

// observe runs one scenario under one defense and captures the full
// observable outcome, including the monitor's recorded violation set.
func observe(t *testing.T, s attacks.Scenario, d attacks.Defense) (observation, *attacks.Env) {
	t.Helper()
	out, env, err := attacks.ExecuteEnv(s, d)
	if err != nil {
		t.Fatalf("%s under %s: %v", s.ID, d.Name, err)
	}
	return observationOf(out, env), env
}

// observationOf captures a finished scenario's observable outcome.
func observationOf(out attacks.Outcome, env *attacks.Env) observation {
	o := observation{
		completed: out.Completed,
		killed:    out.Killed,
		killedBy:  out.KilledBy,
		reason:    out.Reason,
	}
	mon := env.P.Monitor
	o.violated = mon.ViolatedContexts()
	for _, v := range mon.Violations {
		o.violations = append(o.violations, v.String())
	}
	return o
}

// roundTrip returns a copy of the artifact whose metadata went through
// the JSON sidecar format and back.
func roundTrip(t *testing.T, art *core.Artifact) *core.Artifact {
	t.Helper()
	data, err := art.Meta.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	meta, err := metadata.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	rt := *art
	rt.Meta = meta
	return &rt
}

// differentialCases is the monitor-configuration matrix: every context in
// isolation and combined under full mode, plus the reduced modes (where
// checking is disabled, so policy precision must stay entirely silent).
var differentialCases = []struct {
	name     string
	contexts monitor.Context
	mode     monitor.Mode
}{
	{"full/CT", monitor.CallType, monitor.ModeFull},
	{"full/CF", monitor.ControlFlow, monitor.ModeFull},
	{"full/AI", monitor.ArgIntegrity, monitor.ModeFull},
	{"full/SF", monitor.SyscallFlow, monitor.ModeFull},
	{"full/no-SF", monitor.CallType | monitor.ControlFlow | monitor.ArgIntegrity, monitor.ModeFull},
	{"full/all", monitor.AllContexts, monitor.ModeFull},
	{"fetch-only/all", monitor.AllContexts, monitor.ModeFetchOnly},
	{"hook-only/all", monitor.AllContexts, monitor.ModeHookOnly},
}

// TestDifferentialAttackMatrix runs the complete Table 6 catalog through
// every monitor configuration twice — from the in-memory and from the
// round-tripped metadata — and requires identical observations.
func TestDifferentialAttackMatrix(t *testing.T) {
	for _, s := range attacks.Catalog() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			prog, err := attacks.BuildApp(s.App)
			if err != nil {
				t.Fatal(err)
			}
			art, err := core.Compile(prog, core.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rt := roundTrip(t, art)
			for _, c := range differentialCases {
				d := attacks.Defense{Name: "diff/" + c.name, Monitor: core.Enforcing(c.contexts)}
				d.Monitor.Mode = c.mode
				var obs [2]observation
				var cycles [2]uint64
				for i, a := range []*core.Artifact{art, rt} {
					env, err := attacks.LaunchArtifact(s.App, a, d)
					if err != nil {
						t.Fatalf("%s under %s: %v", s.ID, d.Name, err)
					}
					obs[i] = observationOf(attacks.Replay(s, env), env)
					cycles[i] = env.P.Kernel.Clock.Cycles
				}
				if !obs[0].equal(obs[1]) {
					t.Errorf("%s: the sidecar round trip changed the observable outcome\n  in-memory:    %s\n  round-tripped: %s",
						c.name, obs[0], obs[1])
				}
				if cycles[0] != cycles[1] {
					t.Errorf("%s: the sidecar round trip changed the cycle account: %d vs %d", c.name, cycles[0], cycles[1])
				}
			}
		})
	}
}

// TestDifferentialWorkloads drives the three benchmark workloads under
// full protection (with and without the fs extension) from the in-memory
// and from the round-tripped metadata, and requires identical workload
// measurements, violation-free on both sides.
func TestDifferentialWorkloads(t *testing.T) {
	arts := fleet.NewArtifacts()
	for _, app := range workload.Apps {
		for _, extendFS := range []bool{false, true} {
			name := app
			if extendFS {
				name += "/fs"
			}
			t.Run(name, func(t *testing.T) {
				art, err := arts.Compiled(app)
				if err != nil {
					t.Fatal(err)
				}
				cfg := monitor.DefaultConfig()
				cfg.ExtendFS = extendFS
				mem, memMon := runWorkload(t, app, art, cfg)
				rt, rtMon := runWorkload(t, app, roundTrip(t, art), cfg)
				if len(memMon.Violations) != 0 || len(rtMon.Violations) != 0 {
					t.Fatalf("benign workload flagged: in-memory=%v round-tripped=%v", memMon.Violations, rtMon.Violations)
				}
				if mem != rt {
					t.Fatalf("workload results diverged: in-memory=%+v round-tripped=%+v", mem, rt)
				}
			})
		}
	}
}

// runWorkload runs 25 units of an application's benchmark workload on a
// fresh kernel, protected by the monitor and CET as bench.MitFull is.
func runWorkload(t *testing.T, app string, art *core.Artifact, cfg monitor.Config) (workload.Result, *monitor.Monitor) {
	t.Helper()
	target, err := workload.NewTarget(app)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(nil)
	k.Costs.IOPerByte = workload.IOPerByte(app)
	if err := target.Fixture(k); err != nil {
		t.Fatal(err)
	}
	prot, err := core.Launch(art, k, cfg, vm.WithMitigations(cet.New()), vm.WithMaxSteps(1<<34))
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(target, prot, 25)
	if err != nil {
		t.Fatal(err)
	}
	return res, prot.Monitor
}
