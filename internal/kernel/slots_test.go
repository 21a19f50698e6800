package kernel_test

import (
	"math"
	"strings"
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/obs"
	"bastion/internal/seccomp"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// TestSlotIndex: the implemented numbers take slots 0..NrSlots-1 in
// ascending order, and every other number maps to the overflow slot.
func TestSlotIndex(t *testing.T) {
	if len(kernel.Names) != kernel.NrSlots {
		t.Fatalf("%d names for %d slots", len(kernel.Names), kernel.NrSlots)
	}
	for s := 0; s < kernel.NrSlots; s++ {
		nr := kernel.SlotNr(s)
		if kernel.Slot(nr) != s || kernel.SlotName(s) != kernel.Name(nr) {
			t.Fatalf("slot %d holds %d (%s), which maps back to slot %d", s, nr, kernel.SlotName(s), kernel.Slot(nr))
		}
		if s > 0 && kernel.SlotNr(s-1) >= nr {
			t.Fatalf("slots %d and %d out of order", s-1, s)
		}
	}
	for _, nr := range []uint32{6, 7, 323, 999, math.MaxUint32} {
		if kernel.Slot(nr) != kernel.NrSlots {
			t.Fatalf("unimplemented %d maps to slot %d", nr, kernel.Slot(nr))
		}
	}
	if kernel.SlotName(kernel.NrSlots) != "other" {
		t.Fatalf("overflow slot is named %q", kernel.SlotName(kernel.NrSlots))
	}
}

// syscallKind is one way a syscall passes the seccomp filter. memo says
// whether its filter run is kept in the verdict memo, so that every call
// after the first is a memo hit.
type syscallKind struct {
	name string
	nr   uint32
	memo bool
}

// syscallKinds are a filtered allow, an in-filter RET_LOG allow, a traced
// call whose tracer allows it and an unimplemented number; each does its
// work without touching guest memory or the fd table's entries. The
// RET_LOG verdict reads an argument and the unimplemented number shares
// the overflow slot, so both run the filter on every call.
var syscallKinds = []syscallKind{
	{"allow", kernel.SysGetpid, true},
	{"log", kernel.SysBrk, false},
	{"trace", kernel.SysLseek, true},
	{"overflow", 999, false},
}

// allowTracer allows every trapped syscall.
type allowTracer struct{ traps int }

func (a *allowTracer) Trap(*kernel.Process) error { a.traps++; return nil }

// newFilteredGuest registers a process whose filter allows getpid, answers
// brk(0) in-filter with RET_LOG and traces lseek.
func newFilteredGuest(tb testing.TB) (*kernel.Kernel, *vm.Machine, *kernel.Process, *allowTracer) {
	tb.Helper()
	p := guestlibc.NewProgram()
	b := ir.NewBuilder("main", 0)
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())
	if err := p.Link(); err != nil {
		tb.Fatal(err)
	}
	clock := &vm.Clock{}
	k := kernel.New(clock)
	m, err := vm.New(p, vm.WithOS(k), vm.WithClock(clock))
	if err != nil {
		tb.Fatal(err)
	}
	proc := k.Register(m)
	pol := &seccomp.Policy{
		Default:   seccomp.RetAllow,
		Actions:   map[uint32]uint32{kernel.SysLseek: seccomp.RetTrace},
		ArgRules:  map[uint32]seccomp.ArgRule{kernel.SysBrk: {Matches: []seccomp.ArgMatch{{Pos: 0, Val: 0}}, Match: seccomp.RetLog, Else: seccomp.RetTrace}},
		CheckArch: true,
	}
	prog, err := pol.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	if err := proc.SetSeccompFilter(prog); err != nil {
		tb.Fatal(err)
	}
	tr := &allowTracer{}
	proc.SetTracer(tr)
	return k, m, proc, tr
}

// syscall issues nr from m with zero arguments.
func syscall(tb testing.TB, k *kernel.Kernel, m *vm.Machine, nr uint32) int64 {
	m.SysRegs = vm.Regs{RAX: uint64(nr)}
	ret, err := k.Syscall(m)
	if err != nil {
		tb.Fatalf("syscall %d: %v", nr, err)
	}
	return ret
}

// TestSyscallNoAllocs: a filtered allow, a RET_LOG allow, a traced call
// and an unimplemented number through Kernel.Syscall allocate nothing,
// on a verdict memo hit or miss alike, and each lands in its counters.
func TestSyscallNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	k, m, proc, tr := newFilteredGuest(t)
	for _, kind := range syscallKinds {
		syscall(t, k, m, kind.nr) // warm up
		allocs := testing.AllocsPerRun(100, func() { syscall(t, k, m, kind.nr) })
		if allocs != 0 {
			t.Errorf("%s syscall allocates %.1f objects per call", kind.name, allocs)
		}
		if n := proc.SyscallCounts.Of(kind.nr); n != 102 || proc.CompletedCounts.Of(kind.nr) != n {
			t.Errorf("%s: %d calls, %d completed, want 102", kind.name, n, proc.CompletedCounts.Of(kind.nr))
		}
		if proc.Memoized(kind.nr) != kind.memo {
			t.Errorf("%s: memoized %v, want %v", kind.name, proc.Memoized(kind.nr), kind.memo)
		}
	}
	if proc.LogVerdicts.Of(kernel.SysBrk) != 102 || tr.traps != 102 || proc.TrapCount != 102 {
		t.Fatalf("log verdicts %d, traps %d/%d, want 102", proc.LogVerdicts.Of(kernel.SysBrk), tr.traps, proc.TrapCount)
	}
}

// TestUnimplementedSyscallsShareOverflowSlot: unimplemented numbers count
// in the overflow slot, sums over the counters stay exact, and a registry
// bound to the counters renders the slot as one pooled row, never a row
// per number.
func TestUnimplementedSyscallsShareOverflowSlot(t *testing.T) {
	k, m, proc, _ := newFilteredGuest(t)
	issued := []uint32{999, math.MaxUint32, kernel.SysGetpid, 999}
	for _, nr := range issued {
		ret := syscall(t, k, m, nr)
		if nr != kernel.SysGetpid && ret != -kernel.ENOSYS {
			t.Fatalf("unimplemented %d returned %d", nr, ret)
		}
	}
	var sum uint64
	for _, n := range proc.SyscallCounts {
		sum += n
	}
	if sum != uint64(len(issued)) || proc.SyscallCounts[kernel.NrSlots] != 3 ||
		proc.SyscallCounts.Of(999) != 3 || proc.SyscallCounts.Of(math.MaxUint32) != 3 {
		t.Fatalf("counts %v sum to %d, want %d with 3 in the overflow slot", proc.SyscallCounts, sum, len(issued))
	}
	r := obs.NewRegistry()
	r.BindCounterMap("syscalls_total", proc.SyscallCounts[:], kernel.SlotName)
	out := r.Render()
	if strings.Contains(out, "sys_") || !strings.Contains(out, "syscalls_total[other]") || !strings.Contains(out, "syscalls_total[getpid]") {
		t.Fatalf("registry rows:\n%s", out)
	}
}

// BenchmarkKernelSyscall measures Kernel.Syscall for each way a syscall
// passes the filter, and for a write under the linear filter of the
// sqlite generation that the sqlite-txn benchmark runs (Table 1's set,
// full enforcement), reporting that filter's steps per write.
func BenchmarkKernelSyscall(b *testing.B) {
	for _, kind := range syscallKinds {
		b.Run(kind.name, func(b *testing.B) {
			k, m, _, _ := newFilteredGuest(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				syscall(b, k, m, kind.nr)
			}
		})
	}
	b.Run("sqlite-write", func(b *testing.B) {
		art, err := core.Compile(workload.NewSQLite().Build(), core.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		g, err := monitor.NewGeneration(0, art.Meta, monitor.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		k, m, proc, _ := newFilteredGuest(b)
		if err := proc.SetSeccompFilter(g.Filter); err != nil {
			b.Fatal(err)
		}
		syscall(b, k, m, kernel.SysWrite)
		steps := proc.FilterSteps
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			syscall(b, k, m, kernel.SysWrite)
		}
		b.ReportMetric(float64(steps), "filter-steps/op")
	})
}
