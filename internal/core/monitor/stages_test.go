package monitor_test

import (
	"strconv"
	"strings"
	"testing"

	"bastion/internal/bench"
	"bastion/internal/core/monitor"
	"bastion/internal/workload"
)

// trapStages are the per-stage cycle counters of one trap, in pipeline
// order. They are the whole trap: nothing the monitor charges falls
// outside them.
var trapStages = []string{"fetch", "unwind", "ct", "cf", "ai", "sf"}

// TestStageCountersSumToMonitorCycles runs the three benchmark workloads
// under full enforcement with the fs extension, offload off and on, and
// requires the monitor's stage counters to sum exactly to the cycles the
// kernel attributed to monitor traps. It also requires that the registry
// holds no other monitor_cycles_* counter, so a stage the sum leaves out
// cannot hide in the registry.
func TestStageCountersSumToMonitorCycles(t *testing.T) {
	configs := []struct {
		name     string
		contexts monitor.Context
		offload  bool
	}{
		{"all", monitor.AllContexts, false},
		// The offload needs a context set without stack or cross-trap
		// state; CT+AI is its target shape.
		{"ct+ai/offload", monitor.CallType | monitor.ArgIntegrity, true},
	}
	for _, app := range workload.Apps {
		for _, c := range configs {
			t.Run(app+"/"+c.name, func(t *testing.T) {
				spec := bench.RunSpec{App: app, Mitigation: bench.MitFull, Units: 10, ExtendFS: true}
				spec.Mitigation.Monitor.Contexts = c.contexts
				spec.Mitigation.Monitor.Offload = c.offload
				res, err := bench.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				mon := res.Protected.Monitor
				if c.offload && mon.OffloadAvoided() == 0 {
					t.Fatal("offload-on run avoided no traps")
				}
				registered := map[string]uint64{}
				for _, line := range strings.Split(mon.Metrics.Render(), "\n") {
					f := strings.Fields(line)
					if len(f) != 3 || f[0] != "counter" || !strings.HasPrefix(f[1], "monitor_cycles_") {
						continue
					}
					v, err := strconv.ParseUint(f[2], 10, 64)
					if err != nil {
						t.Fatalf("counter line %q: %v", line, err)
					}
					registered[f[1]] = v
				}
				var sum uint64
				for _, stage := range trapStages {
					name := "monitor_cycles_" + stage + "_total"
					v, ok := registered[name]
					if !ok {
						t.Fatalf("stage counter %s not registered", name)
					}
					sum += v
					delete(registered, name)
				}
				if len(registered) != 0 {
					t.Errorf("unexpected monitor_cycles_* counters: %v", registered)
				}
				if got := res.Protected.Proc.MonitorCycles; sum != got {
					t.Errorf("stage counters sum to %d cycles, Proc.MonitorCycles is %d", sum, got)
				}
				if sum == 0 {
					t.Error("no monitor cycles: the workload never trapped")
				}
			})
		}
	}
}
