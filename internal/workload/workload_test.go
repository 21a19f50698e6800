package workload_test

import (
	"errors"
	"strings"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// launch prepares a protected (or bare) instance of a target.
func launch(t *testing.T, target workload.Target, protected bool) *core.Protected {
	t.Helper()
	prog := target.Build()
	k := kernel.New(nil)
	if err := target.Fixture(k); err != nil {
		t.Fatal(err)
	}
	art, err := core.Compile(prog, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var prot *core.Protected
	if protected {
		prot, err = core.Launch(art, k, monitor.DefaultConfig(), vm.WithMaxSteps(1<<30))
	} else {
		prot, err = core.LaunchUnprotected(art, k, vm.WithMaxSteps(1<<30))
	}
	if err != nil {
		t.Fatal(err)
	}
	return prot
}

func TestTargetsRunProtected(t *testing.T) {
	for _, name := range workload.Apps {
		name := name
		t.Run(name, func(t *testing.T) {
			target, err := workload.NewTarget(name)
			if err != nil {
				t.Fatal(err)
			}
			prot := launch(t, target, true)
			res, err := workload.Run(target, prot, 8)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Units != 8 || res.Bytes == 0 {
				t.Fatalf("result = %+v", res)
			}
			if res.InitCycles == 0 || res.TotalCycles == 0 {
				t.Fatalf("cycles = %+v", res)
			}
			if res.MonitorCycles == 0 || res.MonitorCycles >= res.TotalCycles {
				t.Fatalf("monitor share = %d of %d", res.MonitorCycles, res.TotalCycles)
			}
			if res.Traps == 0 {
				t.Fatal("no traps under protection")
			}
			if len(prot.Monitor.Violations) != 0 {
				t.Fatalf("violations: %v", prot.Monitor.Violations)
			}
			if res.PerUnitTotal() <= 0 || res.PerUnitMonitor() <= 0 {
				t.Fatal("per-unit accessors broken")
			}
		})
	}
}

func TestTargetsRunUnprotected(t *testing.T) {
	for _, name := range workload.Apps {
		target, err := workload.NewTarget(name)
		if err != nil {
			t.Fatal(err)
		}
		prot := launch(t, target, false)
		res, err := workload.Run(target, prot, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MonitorCycles != 0 || res.Traps != 0 {
			t.Fatalf("%s: monitor activity without monitor: %+v", name, res)
		}
	}
}

func TestUnknownTarget(t *testing.T) {
	if _, err := workload.NewTarget("postgres"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnitLabelsAndWorkers(t *testing.T) {
	want := map[string]struct {
		label   string
		workers int
	}{
		"nginx":  {"request", 32},
		"sqlite": {"transaction", 48},
		"vsftpd": {"transfer", 1},
	}
	for name, w := range want {
		target, err := workload.NewTarget(name)
		if err != nil {
			t.Fatal(err)
		}
		if target.UnitLabel() != w.label {
			t.Errorf("%s label = %q", name, target.UnitLabel())
		}
		if target.Workers() != w.workers {
			t.Errorf("%s workers = %d", name, target.Workers())
		}
		if target.ThinkPerUnit() == 0 && name != "nginx" {
			t.Errorf("%s has no think model", name)
		}
	}
}

func TestResultZeroUnits(t *testing.T) {
	var r workload.Result
	if r.PerUnitTotal() != 0 || r.PerUnitMonitor() != 0 {
		t.Fatal("zero-unit division")
	}
}

func TestNginxRejectsShortBody(t *testing.T) {
	// Unit() verifies the byte count end-to-end; serve a wrong-size page
	// and the driver must fail loudly rather than record bogus throughput.
	target := workload.NewNginx()
	prog := target.Build()
	k := kernel.New(nil)
	if err := target.Fixture(k); err != nil {
		t.Fatal(err)
	}
	// Overwrite the fixture page with a short one.
	if err := k.FS.WriteFile("/srv/index.html", []byte("tiny"), 0o4); err != nil {
		t.Fatal(err)
	}
	art, err := core.Compile(prog, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := core.LaunchUnprotected(art, k, vm.WithMaxSteps(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(target, prot, 1); err == nil || !strings.Contains(err.Error(), "served") {
		t.Fatalf("short body not detected: %v", err)
	}
}

// failAfter wraps a target and fails its Unit at a fixed index.
type failAfter struct {
	workload.Target
	at int
}

func (f *failAfter) Unit(p *core.Protected, i int) (int64, error) {
	if i == f.at {
		return 0, errFault
	}
	return f.Target.Unit(p, i)
}

var errFault = errors.New("injected unit fault")

// TestRunPartialCountersOnUnitError: when a unit fails, the returned
// Result still carries the steady-state counters for the units that did
// complete, so supervisors can account for real partial progress.
func TestRunPartialCountersOnUnitError(t *testing.T) {
	target := workload.NewNginx()
	prot := launch(t, target, true)

	res, err := workload.Run(&failAfter{Target: target, at: 3}, prot, 6)
	if !errors.Is(err, errFault) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if res.Units != 3 {
		t.Fatalf("partial result recorded %d units, want 3", res.Units)
	}
	if res.InitCycles == 0 {
		t.Error("partial result lost init cycles")
	}
	if res.TotalCycles == 0 || res.MonitorCycles == 0 || res.Traps == 0 {
		t.Errorf("partial result lost steady-state counters: %+v", res)
	}

	// The partial counters must equal a clean 3-unit run's exactly.
	clean, err := workload.Run(workload.NewNginx(), launch(t, workload.NewNginx(), true), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != clean.Bytes || res.TotalCycles != clean.TotalCycles ||
		res.MonitorCycles != clean.MonitorCycles || res.Traps != clean.Traps {
		t.Errorf("partial result %+v != clean 3-unit run %+v", res, clean)
	}
}
