package monitor_test

// Syscall-flow context tests: out-of-graph transitions and illegal first
// syscalls are killed, and fuzzed call sequences agree with a linear
// reference checker over the projected transition graph.

import (
	"errors"
	"strings"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/metadata"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/vm"
)

// TestFlowOutOfGraphTransitionKilled: the victim's CFG places every
// execve last (exec_only falls through to return), so any sensitive
// syscall after do_exec is an ordering main cannot produce.
func TestFlowOutOfGraphTransitionKilled(t *testing.T) {
	prot := launch(t, monitor.DefaultConfig())
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatal(err)
	}
	// Strip the exec bit so execve soft-fails with -EACCES: the guest
	// keeps running but the trap still advanced the flow state.
	if err := prot.Kernel.FS.WriteFile("/bin/app", []byte("x"), 0o4); err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction("do_exec"); err != nil {
		t.Fatalf("mprotect -> execve is a graph edge, got %v", err)
	}
	_, err := prot.Machine.CallFunction("setup")
	var ke *vm.KillError
	if !errors.As(err, &ke) || ke.By != "monitor" {
		t.Fatalf("err = %v, want monitor kill", err)
	}
	if !strings.Contains(ke.Reason, "transition execve -> mmap is outside the flow graph") {
		t.Fatalf("reason = %q", ke.Reason)
	}
	if prot.Monitor.ViolatedContexts() != monitor.SyscallFlow {
		t.Fatalf("violated = %v, want syscall-flow only", prot.Monitor.ViolatedContexts())
	}
}

// TestFlowIllegalFirstSyscallKilled: do_protect is only reachable after
// setup, so mprotect can never be a fresh process's first trap.
func TestFlowIllegalFirstSyscallKilled(t *testing.T) {
	prot := launch(t, monitor.DefaultConfig())
	_, err := prot.Machine.CallFunction("do_protect")
	var ke *vm.KillError
	if !errors.As(err, &ke) || ke.By != "monitor" {
		t.Fatalf("err = %v, want monitor kill", err)
	}
	if !strings.Contains(ke.Reason, "mprotect cannot be the first trapped syscall") {
		t.Fatalf("reason = %q", ke.Reason)
	}
}

// TestFlowDisabledLetsOrderingPass: the same out-of-graph drive is
// silent when the SF bit is off — the per-trap contexts see nothing.
func TestFlowDisabledLetsOrderingPass(t *testing.T) {
	cfg := monitor.DefaultConfig()
	cfg.Contexts = monitor.CallType | monitor.ControlFlow | monitor.ArgIntegrity
	prot := launch(t, cfg)
	if err := prot.Kernel.FS.WriteFile("/bin/app", []byte("x"), 0o4); err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"main", "do_exec", "setup"} {
		if _, err := prot.Machine.CallFunction(fn); err != nil {
			t.Fatalf("%s with SF off: %v", fn, err)
		}
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations with SF off: %v", prot.Monitor.Violations)
	}
	if prot.Monitor.FlowEnforced() {
		t.Fatal("FlowEnforced with SF bit clear")
	}
}

// projectSensitive replicates the monitor's graph projection as an
// independent reference: restrict the full transition graph to trapped
// (here: Table-1 sensitive) syscalls, closing edges through untrapped
// intermediates the monitor never observes.
func projectSensitive(g *metadata.FlowGraph) (start map[uint32]bool, edges map[uint32]map[uint32]bool) {
	closure := func(seed metadata.NrSet) map[uint32]bool {
		out := map[uint32]bool{}
		seen := map[uint32]bool{}
		stack := make([]uint32, 0, len(seed))
		for nr := range seed {
			stack = append(stack, nr)
		}
		for len(stack) > 0 {
			nr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[nr] {
				continue
			}
			seen[nr] = true
			if kernel.IsSensitive(nr) {
				out[nr] = true
				continue
			}
			for next := range g.Edges[nr] {
				stack = append(stack, next)
			}
		}
		return out
	}
	start = closure(g.Start)
	edges = map[uint32]map[uint32]bool{}
	for nr := range g.Nodes {
		if kernel.IsSensitive(nr) {
			edges[nr] = closure(g.Edges[nr])
		}
	}
	return start, edges
}

// FuzzFlowTraceClosure drives fuzzed top-level call sequences through an
// SF-only monitor and checks every run against a linear reference walk of
// the projected graph: the monitor must kill exactly when the reference
// checker sees the first out-of-graph transition, and never otherwise.
func FuzzFlowTraceClosure(f *testing.F) {
	f.Add([]byte{0, 1, 2})       // setup, protect, exec: fully legal
	f.Add([]byte{1})             // protect first: illegal start
	f.Add([]byte{2, 0})          // exec then setup: out-of-graph edge
	f.Add([]byte{0, 1, 1, 2, 2}) // repeated protect, exec twice
	f.Add([]byte{0, 0, 2, 1})

	art, err := core.Compile(buildVictim(), core.CompileOptions{})
	if err != nil {
		f.Fatalf("Compile: %v", err)
	}
	if art.Meta.SyscallFlow.Empty() {
		f.Fatal("victim has no flow graph")
	}
	start, edges := projectSensitive(art.Meta.SyscallFlow)
	drivers := []struct {
		name  string
		emits []uint32
	}{
		{"setup", []uint32{kernel.SysMmap}},
		{"do_protect", []uint32{kernel.SysMprotect}},
		{"do_exec", []uint32{kernel.SysExecve}},
	}

	f.Fuzz(func(t *testing.T, seq []byte) {
		if len(seq) == 0 || len(seq) > 12 {
			return
		}
		cfg := monitor.DefaultConfig()
		cfg.Contexts = monitor.SyscallFlow
		k := kernel.New(nil)
		// No exec bit: execve soft-fails so a fuzzed trace can continue
		// past it, with the trap still advancing the flow state.
		if err := k.FS.WriteFile("/bin/app", []byte("x"), 0o4); err != nil {
			t.Fatal(err)
		}
		prot, err := core.Launch(art, k, cfg, vm.WithMaxSteps(1<<22))
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		prev, active := uint32(0), false
		for _, b := range seq {
			d := drivers[int(b)%len(drivers)]
			// Reference walk: where (if anywhere) does this call leave
			// the projected graph?
			legal := true
			rp, ra := prev, active
			for _, nr := range d.emits {
				if legal {
					if !ra {
						legal = start[nr]
					} else {
						legal = edges[rp][nr]
					}
				}
				rp, ra = nr, true
			}
			_, cerr := prot.Machine.CallFunction(d.name)
			var ke *vm.KillError
			if errors.As(cerr, &ke) {
				if legal {
					t.Fatalf("%s killed (%s) but reference checker allows it (prev=%s active=%v)",
						d.name, ke.Reason, kernel.Name(prev), active)
				}
				if ke.By != "monitor" || !strings.Contains(ke.Reason, "syscall-flow") {
					t.Fatalf("%s: kill %q, want a monitor syscall-flow kill", d.name, ke.Reason)
				}
				return
			}
			if cerr != nil {
				t.Fatalf("%s: %v", d.name, cerr)
			}
			if !legal {
				t.Fatalf("%s completed but reference checker rejects it (prev=%s active=%v)",
					d.name, kernel.Name(prev), active)
			}
			prev, active = rp, ra
		}
		if n := len(prot.Monitor.Violations); n != 0 {
			t.Fatalf("legal trace produced violations: %v", prot.Monitor.Violations)
		}
	})
}
