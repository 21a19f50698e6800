package monitor_test

import (
	"slices"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/obs"
	"bastion/internal/seccomp"
)

// stageGen builds a generation from the protected process's own metadata
// with the given policy knobs and stages it.
func stageGen(t *testing.T, prot *core.Protected, id uint64, mutate func(*monitor.Config)) *monitor.Generation {
	t.Helper()
	cfg := prot.Monitor.Cfg
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := monitor.NewGeneration(id, prot.Monitor.Generation().Meta, cfg)
	if err != nil {
		t.Fatalf("NewGeneration: %v", err)
	}
	if err := prot.Monitor.StageGeneration(g); err != nil {
		t.Fatalf("StageGeneration: %v", err)
	}
	return g
}

// TestSwapAppliesAtTrapBoundary proves staging is lazy: the generation is
// live only after the next trap, and that boundary trap itself is still
// judged and stamped under the old generation.
func TestSwapAppliesAtTrapBoundary(t *testing.T) {
	cfg := monitor.DefaultConfig()
	cfg.Sink = &obs.BufferSink{}
	prot := launch(t, cfg)
	if _, err := prot.Machine.CallFunction("setup"); err != nil {
		t.Fatal(err)
	}
	oldFilter := prot.Proc.SeccompFilter()

	g := stageGen(t, prot, 1, func(c *monitor.Config) { c.TreeFilter = !c.TreeFilter })
	if got := prot.Monitor.Generation().ID; got != 0 {
		t.Fatalf("generation flipped at stage time: %d", got)
	}
	if !slices.Equal(prot.Proc.SeccompFilter(), oldFilter) {
		t.Fatal("kernel filter replaced before the trap boundary")
	}

	// The boundary trap: judged under gen 0, swap applies at its end.
	if _, err := prot.Machine.CallFunction("do_protect"); err != nil {
		t.Fatal(err)
	}
	if got := prot.Monitor.Generation().ID; got != 1 {
		t.Fatalf("generation after boundary trap = %d, want 1", got)
	}
	if slices.Equal(g.Filter, oldFilter) {
		t.Fatal("the reload's filter equals the launch filter")
	}
	if !slices.Equal(prot.Proc.SeccompFilter(), g.Filter) {
		t.Fatal("installed filter is not the generation's filter")
	}
	if prot.Monitor.Reloads != 1 || prot.Monitor.ReloadCycles == 0 {
		t.Fatalf("reload accounting: %d reloads, %d cycles", prot.Monitor.Reloads, prot.Monitor.ReloadCycles)
	}

	sink := prot.Monitor.Cfg.Sink.(*obs.BufferSink)
	if n := len(sink.Events); n < 2 {
		t.Fatalf("want at least 2 trap events, got %d", n)
	}
	boundary := sink.Events[len(sink.Events)-1]
	if boundary.Gen != 0 {
		t.Fatalf("boundary trap stamped gen %d, want 0 (judged under the old generation)", boundary.Gen)
	}

	// The next trap runs — and is stamped — under the new generation.
	if _, err := prot.Machine.CallFunction("do_protect"); err != nil {
		t.Fatal(err)
	}
	last := sink.Events[len(sink.Events)-1]
	if last.Gen != 1 {
		t.Fatalf("post-swap trap stamped gen %d, want 1", last.Gen)
	}
}

// TestSwapDropsFilterVerdicts: the kernel keeps the filter's verdicts per
// syscall number, and a hot reload must not leave the old filter's there.
// Before the swap, getpid (untraced, issued by a function the victim gains
// here) and mprotect (traced) are each charged the old filter's steps,
// also when repeated; after the boundary trap installs the new
// generation, each is charged the new filter's, which differ (the new
// generation flips the tree compilation).
func TestSwapDropsFilterVerdicts(t *testing.T) {
	victim := buildVictim()
	b := ir.NewBuilder("do_getpid", 0)
	b.Ret(ir.R(b.Call("getpid")))
	victim.AddFunc(b.Build())
	art, err := core.Compile(victim, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := core.Launch(art, kernel.New(nil), monitor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction("setup"); err != nil {
		t.Fatal(err)
	}
	stepsOf := func(filter []seccomp.Insn, nr uint32) uint64 {
		_, steps, err := seccomp.Run(filter, &seccomp.Data{Nr: nr, Arch: seccomp.AuditArchX86_64})
		if err != nil {
			t.Fatal(err)
		}
		return uint64(steps)
	}
	charged := func(call func()) uint64 {
		before := prot.Proc.FilterSteps
		call()
		return prot.Proc.FilterSteps - before
	}
	getpid := func() {
		if _, err := prot.Machine.CallFunction("do_getpid"); err != nil {
			t.Fatal(err)
		}
	}
	protect := func() {
		if _, err := prot.Machine.CallFunction("do_protect"); err != nil {
			t.Fatal(err)
		}
	}
	old := prot.Proc.SeccompFilter()
	for i := 0; i < 2; i++ {
		if got, want := charged(getpid), stepsOf(old, kernel.SysGetpid); got != want {
			t.Fatalf("getpid %d under generation 0: %d steps, want %d", i, got, want)
		}
		if got, want := charged(protect), stepsOf(old, kernel.SysMprotect); got != want {
			t.Fatalf("mprotect %d under generation 0: %d steps, want %d", i, got, want)
		}
	}

	g := stageGen(t, prot, 1, func(c *monitor.Config) { c.TreeFilter = !c.TreeFilter })
	if stepsOf(old, kernel.SysGetpid) == stepsOf(g.Filter, kernel.SysGetpid) ||
		stepsOf(old, kernel.SysMprotect) == stepsOf(g.Filter, kernel.SysMprotect) {
		t.Fatal("the generations' filters take equal steps; the test cannot tell them apart")
	}
	// The boundary trap is still judged, and charged, under generation 0.
	if got, want := charged(protect), stepsOf(old, kernel.SysMprotect); got != want {
		t.Fatalf("boundary mprotect: %d steps, want %d", got, want)
	}
	if prot.Monitor.Generation() != g {
		t.Fatal("the swap did not apply at the boundary trap")
	}
	for i := 0; i < 2; i++ {
		if got, want := charged(getpid), stepsOf(g.Filter, kernel.SysGetpid); got != want {
			t.Fatalf("getpid %d under generation 1: %d steps, want %d", i, got, want)
		}
		if got, want := charged(protect), stepsOf(g.Filter, kernel.SysMprotect); got != want {
			t.Fatalf("mprotect %d under generation 1: %d steps, want %d", i, got, want)
		}
	}
}

// tornSink asserts, at every emit, that the event's generation stamp
// agrees with the state the monitor and kernel hold while the event is
// observed: a gen-0 event must be observed with the gen-0 filter AND gen-0
// metadata installed, a gen-1 event with both swapped. Any mix is a torn
// policy.
type tornSink struct {
	t         *testing.T
	prot      *core.Protected
	oldFilter []seccomp.Insn
	newFilter []seccomp.Insn
	oldMeta   bool // metadata pointer identity checked by the closure below
	metaIsOld func() bool
}

func (s *tornSink) Emit(ev *obs.TrapEvent) {
	installed := s.prot.Proc.SeccompFilter()
	filterOld, filterNew := slices.Equal(installed, s.oldFilter), slices.Equal(installed, s.newFilter)
	metaOld := s.metaIsOld()
	switch ev.Gen {
	case 0:
		if !filterOld || !metaOld {
			s.t.Errorf("torn policy: gen-0 event observed with filterOld=%v metaOld=%v", filterOld, metaOld)
		}
	case 1:
		if !filterNew || metaOld {
			s.t.Errorf("torn policy: gen-1 event observed with filterNew=%v metaOld=%v", filterNew, metaOld)
		}
	default:
		s.t.Errorf("unexpected generation stamp %d", ev.Gen)
	}
}

// TestSwapNeverTearsPolicy drives traps across a swap and checks, inside
// the observation hook of every single trap, that filter, metadata, and
// generation stamp always belong to the same generation.
func TestSwapNeverTearsPolicy(t *testing.T) {
	cfg := monitor.DefaultConfig()
	sink := &tornSink{t: t}
	cfg.Sink = sink
	prot := launch(t, cfg)
	sink.prot = prot
	oldMeta := prot.Monitor.Generation().Meta
	sink.metaIsOld = func() bool { return prot.Monitor.Generation().Meta == oldMeta }
	sink.oldFilter = prot.Proc.SeccompFilter()

	if _, err := prot.Machine.CallFunction("setup"); err != nil {
		t.Fatal(err)
	}
	// The new generation carries its own metadata value (same content,
	// distinct pointer) so the sink can tell which generation's metadata
	// the monitor is judging against at every single trap.
	newMeta := *oldMeta
	cfg2 := prot.Monitor.Cfg
	cfg2.TreeFilter = !cfg2.TreeFilter
	g, err := monitor.NewGeneration(1, &newMeta, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := prot.Monitor.StageGeneration(g); err != nil {
		t.Fatal(err)
	}
	sink.newFilter = g.Filter
	for i := 0; i < 4; i++ {
		if _, err := prot.Machine.CallFunction("do_protect"); err != nil {
			t.Fatal(err)
		}
	}
	if prot.Monitor.Generation() != g {
		t.Fatalf("swap never applied")
	}
}

// TestSwapRestagesAndValidates covers the staging API's edges: nil and
// incomplete generations are rejected, the launch ID 0 is rejected, and
// staging twice before a trap keeps only the newest bundle.
func TestSwapRestagesAndValidates(t *testing.T) {
	prot := launch(t, monitor.DefaultConfig())
	if err := prot.Monitor.StageGeneration(nil); err == nil {
		t.Fatal("nil generation accepted")
	}
	if err := prot.Monitor.StageGeneration(&monitor.Generation{ID: 1}); err == nil {
		t.Fatal("incomplete generation accepted")
	}
	if err := prot.Monitor.StageGeneration(prot.Monitor.Generation()); err == nil {
		t.Fatal("generation id 0 accepted")
	}

	if _, err := prot.Machine.CallFunction("setup"); err != nil {
		t.Fatal(err)
	}
	stageGen(t, prot, 1, nil)
	g2 := stageGen(t, prot, 2, nil) // replaces the staged gen 1
	if _, err := prot.Machine.CallFunction("do_protect"); err != nil {
		t.Fatal(err)
	}
	if got := prot.Monitor.Generation(); got != g2 {
		t.Fatalf("applied generation %d, want 2 (latest staged wins)", got.ID)
	}
	if prot.Monitor.Reloads != 1 {
		t.Fatalf("%d reloads applied, want 1", prot.Monitor.Reloads)
	}
}

// TestSwapRejectsOtherMode: Mode is a launch decision, so a generation
// compiled under another Mode fails closed at staging — a hook-only
// filter allows every protected syscall without a trap, and must never
// reach a full-mode monitor.
func TestSwapRejectsOtherMode(t *testing.T) {
	prot := launch(t, monitor.DefaultConfig())
	cfg := prot.Monitor.Cfg
	cfg.Mode = monitor.ModeHookOnly
	g, err := monitor.NewGeneration(1, prot.Monitor.Generation().Meta, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := prot.Monitor.StageGeneration(g); err == nil {
		t.Fatal("hook-only generation staged onto a full-mode monitor")
	}
	if _, err := prot.Machine.CallFunction("setup"); err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction("do_protect"); err != nil {
		t.Fatal(err)
	}
	if got := prot.Monitor.Generation().ID; got != 0 || prot.Monitor.Reloads != 0 {
		t.Fatalf("rejected generation applied: generation %d, %d reloads", got, prot.Monitor.Reloads)
	}
}
