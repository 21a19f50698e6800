package attacks

import (
	"fmt"
	"reflect"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// The interpreter runs straight-line code in blocks, with the executing
// frame in locals, and writes the pc, the step count and the clock back
// before every call, return, syscall, intrinsic and fault. A hook
// anywhere makes it leave after every instruction instead. These tests
// run the same guest both ways and require everything the kernel, the
// monitor and the mitigations can see to be identical.

// unreached is a hook address no instruction has: code addresses start
// at ir.CodeBase and are multiples of ir.InstrSize.
const unreached = 0x1

// syscallLog is a vm.SyscallHandler in front of the kernel that records
// the registers latched at every syscall, with the step count and the
// clock the kernel sees there.
type syscallLog struct {
	os    vm.SyscallHandler
	stops []syscallStop
}

type syscallStop struct {
	Regs          vm.Regs
	Steps, Cycles uint64
}

func (l *syscallLog) Syscall(m *vm.Machine) (int64, error) {
	l.stops = append(l.stops, syscallStop{m.SysRegs, m.Steps, m.Clock.Cycles})
	return l.os.Syscall(m)
}

// observed returns a machine option that puts log in front of the
// machine's kernel and, when single, installs a no-op hook at unreached,
// which makes the run loop execute one instruction per entry.
func observed(log *syscallLog, single bool) vm.Option {
	return func(m *vm.Machine) {
		log.os, m.OS = m.OS, log
		if single {
			m.AddHook(unreached, func(*vm.Machine) error { return nil })
		}
	}
}

// runView is what a run leaves for the world outside the interpreter.
type runView struct {
	Steps, Cycles uint64
	Syscalls      []syscallStop
	Violations    []string
	Result        workload.Result // apps
	Outcome       Outcome         // attacks
	Err           string
}

func violations(p *core.Protected) []string {
	if p.Monitor == nil {
		return nil
	}
	var out []string
	for _, v := range p.Monitor.Violations {
		out = append(out, v.String())
	}
	return out
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffRuns reports the first field two views disagree on.
func diffRuns(t *testing.T, what string, block, single runView) {
	t.Helper()
	if reflect.DeepEqual(block, single) {
		return
	}
	switch {
	case block.Steps != single.Steps:
		t.Errorf("%s: steps %d in blocks, %d one at a time", what, block.Steps, single.Steps)
	case block.Cycles != single.Cycles:
		t.Errorf("%s: cycles %d in blocks, %d one at a time", what, block.Cycles, single.Cycles)
	case !reflect.DeepEqual(block.Syscalls, single.Syscalls):
		n := min(len(block.Syscalls), len(single.Syscalls))
		i := 0
		for i < n && block.Syscalls[i] == single.Syscalls[i] {
			i++
		}
		t.Errorf("%s: %d and %d syscalls, first difference at syscall %d", what, len(block.Syscalls), len(single.Syscalls), i)
	default:
		t.Errorf("%s: runs differ\n  in blocks:       %+v\n  one at a time:   %+v", what,
			fmt.Sprint(block.Violations, block.Result, block.Outcome, block.Err),
			fmt.Sprint(single.Violations, single.Result, single.Outcome, single.Err))
	}
}

// TestRunLoopDifferentialApps runs each application's Init and 50 units
// under full enforcement, in blocks and one instruction at a time.
func TestRunLoopDifferentialApps(t *testing.T) {
	for _, app := range workload.Apps {
		t.Run(app, func(t *testing.T) {
			target, err := workload.NewTarget(app)
			if err != nil {
				t.Fatal(err)
			}
			art, err := core.Compile(target.Build(), core.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var views [2]runView
			for i, single := range []bool{false, true} {
				target, _ := workload.NewTarget(app)
				k := kernel.New(nil)
				k.Costs.IOPerByte = workload.IOPerByte(app)
				if err := target.Fixture(k); err != nil {
					t.Fatal(err)
				}
				var log syscallLog
				prot, err := core.Launch(art, k, monitor.DefaultConfig(), observed(&log, single))
				if err != nil {
					t.Fatal(err)
				}
				res, err := workload.Run(target, prot, 50)
				if err != nil || res.Units != 50 {
					t.Fatalf("single=%v: %d units: %v", single, res.Units, err)
				}
				views[i] = runView{
					Steps: prot.Machine.Steps, Cycles: k.Clock.Cycles,
					Syscalls: log.stops, Violations: violations(prot), Result: res,
				}
			}
			if len(views[0].Syscalls) == 0 {
				t.Fatal("the run made no syscalls")
			}
			t.Logf("%s: %d steps, %d cycles, %d syscalls", app, views[0].Steps, views[0].Cycles, len(views[0].Syscalls))
			diffRuns(t, app, views[0], views[1])
		})
	}
}

// TestRunLoopDifferentialAttacks runs the attack catalog unprotected,
// under full BASTION, under CET and under LLVM-CFI, in blocks and one
// instruction at a time, from launch and init through the attack.
func TestRunLoopDifferentialAttacks(t *testing.T) {
	arts := map[string]*core.Artifact{}
	for _, s := range Catalog() {
		art := arts[s.App]
		if art == nil {
			prog, err := BuildApp(s.App)
			if err != nil {
				t.Fatal(err)
			}
			if art, err = core.Compile(prog, core.CompileOptions{}); err != nil {
				t.Fatal(err)
			}
			arts[s.App] = art
		}
		for _, d := range []Defense{DefNone, DefAll, DefCET, DefCFI} {
			var views [2]runView
			for i, single := range []bool{false, true} {
				var log syscallLog
				env, err := launchArtifact(s.App, art, d, observed(&log, single))
				if err != nil {
					t.Fatalf("%s under %s: %v", s.ID, d.Name, err)
				}
				out := Replay(s, env)
				views[i] = runView{
					Steps: env.P.Machine.Steps, Cycles: env.P.Kernel.Clock.Cycles,
					Syscalls: log.stops, Violations: violations(env.P),
					Outcome: out, Err: errString(env.LastErr),
				}
			}
			diffRuns(t, s.ID+" under "+d.Name, views[0], views[1])
		}
	}
}
