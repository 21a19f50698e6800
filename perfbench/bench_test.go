package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bastion/internal/bench"
	"bastion/internal/core/monitor"
	"bastion/internal/fleet"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric lists the program
// prints in step with BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
}

func TestUnitOrderPermutesEachBlock(t *testing.T) {
	a, b, id := newUnitOrder(5), newUnitOrder(5), &unitOrder{}
	first := []int{a.at(0), a.at(1)}
	a = newUnitOrder(5)
	seen := map[int]bool{}
	moved := false
	for u := 0; u < 2*orderBlock; u++ {
		x := a.at(u)
		if x != b.at(u) {
			t.Fatalf("unit %d: same seed gave %d and %d", u, x, b.at(u))
		}
		if x/orderBlock != u/orderBlock || seen[x] {
			t.Fatalf("unit %d got index %d: not a per-block permutation", u, x)
		}
		seen[x] = true
		moved = moved || x != u
		if id.at(u) != u {
			t.Fatalf("identity order maps %d to %d", u, id.at(u))
		}
	}
	other := newUnitOrder(6)
	if !moved || other.at(0) == first[0] && other.at(1) == first[1] {
		t.Fatal("seed does not change the order")
	}
}

// TestSimMatchesBenchRun shows the benchmark's simulated figures are the
// paper report's: the same units through bench.Run give the same
// workload result, bench.Throughput and bench.Overhead.
func TestSimMatchesBenchRun(t *testing.T) {
	const units = 60
	for _, name := range []string{"nginx-fs", "sqlite-txn"} {
		t.Run(name, func(t *testing.T) {
			s := singleSpecs[name]
			inst, arts, _, err := coldSetup(s)
			if err != nil {
				t.Fatal(err)
			}
			wl, c, err := measureWindow(inst, &unitOrder{}, units)
			if err != nil {
				t.Fatal(err)
			}
			base, err := vanilla(s.app, arts)
			if err != nil {
				t.Fatal(err)
			}
			bwl, err := runWindow(base, &unitOrder{}, units)
			if err != nil {
				t.Fatal(err)
			}
			spec := bench.RunSpec{App: s.app, Mitigation: bench.MitFull, Units: units, ExtendFS: s.extendFS, Mode: monitor.ModeFull}
			run, err := bench.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Mitigation = bench.MitVanilla
			van, err := bench.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			strip := func(r *bench.RunResult) string {
				w := r.Workload
				w.InitCycles = 0
				return fmt.Sprintf("%+v", w)
			}
			if got, want := fmt.Sprintf("%+v", wl), strip(run); got != want {
				t.Errorf("protected window %s, bench.Run %s", got, want)
			}
			if got, want := fmt.Sprintf("%+v", bwl), strip(van); got != want {
				t.Errorf("vanilla window %s, bench.Run %s", got, want)
			}
			if got, want := throughput(inst, wl), bench.Throughput(run); got != want {
				t.Errorf("sim_units_per_s %v, bench.Throughput %v", got, want)
			}
			if got, want := overhead(inst, bwl, wl), bench.Overhead(van, run); got != want {
				t.Errorf("sim_overhead_pct %v, bench.Overhead %v", got, want)
			}
			if c.stageSum() != c.monitorCycles || c.monitorCycles == 0 {
				t.Errorf("stage counters sum to %d, Proc.MonitorCycles moved %d", c.stageSum(), c.monitorCycles)
			}
		})
	}
}

// simMetrics returns the printed form of every exact simulated metric.
func simMetrics(r *report) map[string]string {
	out := map[string]string{}
	for name, v := range r.values {
		if strings.HasPrefix(name, "sim_") || strings.Contains(name, ".sim_") || name == "fleet.compiles" {
			out[name] = fmt.Sprint(v)
		}
	}
	return out
}

// TestSeedDeterminism runs every workload briefly: the same seed gives
// byte-identical simulated metrics, traced or not, and another seed
// still passes the correctness gate.
func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			runOnce := func(seed int64, trace bool) *report {
				ref, err := newRefClock()
				if err != nil {
					t.Fatal(err)
				}
				o := options{workload: name, seed: seed, seconds: 50 * time.Millisecond, trace: trace,
					setups: 1, keepUnits: 2, outDir: t.TempDir(), ref: ref}
				r := newReport()
				if err := run(o, r); err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("seed %d trace %v: %d of %d failed: %v", seed, trace, r.failed, r.attempted, r.problems)
				}
				return r
			}
			a, b := simMetrics(runOnce(7, true)), simMetrics(runOnce(7, false))
			if len(a) < 10 {
				t.Fatalf("only %d simulated metrics", len(a))
			}
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s: %s traced, %s untraced", k, v, b[k])
				}
			}
			a2 := simMetrics(runOnce(7, true))
			for k, v := range a {
				if a2[k] != v {
					t.Errorf("%s: %s then %s with the same seed", k, v, a2[k])
				}
			}
			runOnce(8, false)
		})
	}
}

// TestGateCountsFailures checks that the gates count what they find and
// that a run with failures is not correct.
func TestGateCountsFailures(t *testing.T) {
	inst, _, _, err := coldSetup(singleSpecs["sqlite-txn"])
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	checkInstance(inst, r)
	if r.failed != 0 {
		t.Fatalf("clean instance failed the gate: %v", r.problems)
	}
	inst.prot.Monitor.Violations = append(inst.prot.Monitor.Violations, monitor.Violation{Context: monitor.CallType})
	checkInstance(inst, r)
	if r.failed != 1 {
		t.Fatalf("violation counted %d times", r.failed)
	}

	cfg := fleetConfig(1)
	rep := &fleet.Report{Results: []fleet.TenantResult{
		{Units: cfg.Units, Gen: 1, Reloads: 1},
		{Units: cfg.Units - 3, Kills: 1, Restarts: 1, Gen: 0},
	}}
	fr := newReport()
	checkFleet(cfg, rep, fr)
	if fr.failed != 3+2+1 {
		t.Fatalf("fleet gate counted %d failures: %v", fr.failed, fr.problems)
	}
	fr.attempted = 2 * cfg.Units
	var out strings.Builder
	if ok, err := fr.emit(&out, nil); ok || err != nil {
		t.Fatalf("emit reported correct=%v err=%v with failures", ok, err)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("result line does not say incorrect: %s", out.String())
	}
}
