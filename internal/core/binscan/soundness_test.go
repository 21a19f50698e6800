package binscan

import (
	"sort"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/metadata"
	"bastion/internal/core/monitor"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/obs"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// extractApp builds a fresh, uninstrumented copy of the app and runs the
// binary-only extractor over it.
func extractApp(t *testing.T, app string) (*ir.Program, *Result) {
	t.Helper()
	target, err := workload.NewTarget(app)
	if err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	raw := target.Build()
	res, err := Extract(raw)
	if err != nil {
		t.Fatalf("%s: extract: %v", app, err)
	}
	return raw, res
}

// TestExtractedPolicyRunsWorkloads is the enforcement half of the
// soundness gate: the raw binary, monitored under the *extracted* policy
// with full contexts, must complete every legitimate workload with zero
// violations and no kill. A single false constant, missing call type, or
// over-tight transition graph fails this immediately — the seccomp filter
// kills not-callable syscalls and the monitor kills context violations.
func TestExtractedPolicyRunsWorkloads(t *testing.T) {
	const units = 40
	for _, app := range workload.Apps {
		raw, res := extractApp(t, app)
		art := &core.Artifact{Prog: raw, Meta: res.Meta}

		target, err := workload.NewTarget(app)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		k := kernel.New(nil)
		k.Costs.IOPerByte = workload.IOPerByte(app)
		if err := target.Fixture(k); err != nil {
			t.Fatalf("%s: fixture: %v", app, err)
		}
		prot, err := core.Launch(art, k, monitor.DefaultConfig(), vm.WithMaxSteps(1<<34))
		if err != nil {
			t.Fatalf("%s: launch under extracted policy: %v", app, err)
		}
		if _, err := workload.Run(target, prot, units); err != nil {
			t.Fatalf("%s: workload under extracted policy: %v", app, err)
		}
		if len(prot.Monitor.Violations) != 0 {
			t.Errorf("%s: extracted policy raised %d violations; first: %v",
				app, len(prot.Monitor.Violations), prot.Monitor.Violations[0])
		}
		if prot.Proc.Killed() {
			t.Errorf("%s: guest killed under extracted policy", app)
		}
		if prot.Proc.TrapCount == 0 {
			t.Errorf("%s: no traps observed; the gate lost its teeth", app)
		}
	}
}

// dynamicTrace is everything one reference run observed.
type dynamicTrace struct {
	nrs         map[uint32]bool    // every syscall nr the guest invoked
	directEdges map[[2]string]bool // {callee, caller} for every direct call executed
	indTargets  map[string]bool    // every indirectly reached function
	trappedSeq  []uint32           // ordered sequence of trapped syscalls
}

// edgeRecorder is a passive mitigation recording indirect-call targets.
type edgeRecorder struct {
	targets map[string]bool
}

func (r *edgeRecorder) OnCall(m *vm.Machine, retaddr uint64)      {}
func (r *edgeRecorder) OnRet(m *vm.Machine, retaddr uint64) error { return nil }
func (r *edgeRecorder) OnIndirectCall(m *vm.Machine, in *ir.Instr, target uint64) error {
	if callee, _ := m.Prog.FuncAt(target); callee != nil {
		r.targets[callee.Name] = true
	}
	return nil
}

// traceApp drives the compiler-traced artifact (the reference
// configuration known to run all workloads) and records the dynamic
// ground truth: syscall numbers, executed direct call edges, indirect
// targets, and the trapped-syscall order.
func traceApp(t *testing.T, app string, units int) *dynamicTrace {
	t.Helper()
	target, err := workload.NewTarget(app)
	if err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	art, err := core.Compile(target.Build(), core.CompileOptions{})
	if err != nil {
		t.Fatalf("%s: compile: %v", app, err)
	}
	k := kernel.New(nil)
	k.Costs.IOPerByte = workload.IOPerByte(app)
	if err := target.Fixture(k); err != nil {
		t.Fatalf("%s: fixture: %v", app, err)
	}
	rec := &edgeRecorder{targets: map[string]bool{}}
	sink := &obs.BufferSink{}
	cfg := monitor.DefaultConfig()
	cfg.Sink = sink
	prot, err := core.Launch(art, k, cfg, vm.WithMaxSteps(1<<34), vm.WithMitigations(rec))
	if err != nil {
		t.Fatalf("%s: launch: %v", app, err)
	}

	tr := &dynamicTrace{
		nrs:         map[uint32]bool{},
		directEdges: map[[2]string]bool{},
		indTargets:  rec.targets,
	}
	for _, f := range art.Prog.Funcs {
		fn := f
		for i := range fn.Code {
			if fn.Code[i].Kind != ir.Call {
				continue
			}
			callee := fn.Code[i].Sym
			if err := prot.Machine.HookFunc(fn.Name, i, func(*vm.Machine) error {
				tr.directEdges[[2]string{callee, fn.Name}] = true
				return nil
			}); err != nil {
				t.Fatalf("%s: hook %s:%d: %v", app, fn.Name, i, err)
			}
		}
	}
	if _, err := workload.Run(target, prot, units); err != nil {
		t.Fatalf("%s: workload: %v", app, err)
	}
	counts := &prot.Proc.SyscallCounts
	if n := counts[kernel.NrSlots]; n > 0 {
		// The overflow slot records no numbers to check against the policy.
		t.Fatalf("%s: guest invoked %d unimplemented syscalls", app, n)
	}
	for s, n := range counts[:kernel.NrSlots] {
		if n > 0 {
			tr.nrs[kernel.SlotNr(s)] = true
		}
	}
	for i := range sink.Events {
		tr.trappedSeq = append(tr.trappedSeq, sink.Events[i].Nr)
	}
	return tr
}

// TestExtractedCoversDynamicTuples is the observational half of the
// soundness gate: every dynamic fact recorded while driving the reference
// (compiler-traced) run must be admitted by the statically extracted
// policy — extracted ⊇ dynamic, tuple by tuple, for CT, CF, and SF.
func TestExtractedCoversDynamicTuples(t *testing.T) {
	const units = 40
	for _, app := range workload.Apps {
		_, res := extractApp(t, app)
		proj := Project(res.Meta)
		tr := traceApp(t, app, units)

		nrs := make([]int, 0, len(tr.nrs))
		for nr := range tr.nrs {
			nrs = append(nrs, int(nr))
		}
		sort.Ints(nrs)
		for _, nr := range nrs {
			if !proj.AdmitsNr(uint32(nr)) {
				t.Errorf("%s: guest invoked %s (nr %d) but extracted CT rejects it",
					app, kernel.Name(uint32(nr)), nr)
			}
		}
		for edge := range tr.directEdges {
			if !proj.AdmitsDirectEdge(edge[0], edge[1]) {
				t.Errorf("%s: executed direct call %s <- %s outside extracted CF relation",
					app, edge[0], edge[1])
			}
		}
		for fn := range tr.indTargets {
			if !proj.AdmitsIndirectTarget(fn) {
				t.Errorf("%s: dynamic indirect target %s outside extracted target set", app, fn)
			}
		}
		if len(tr.indTargets) == 0 && app == "nginx" {
			t.Errorf("nginx exercised no indirect calls; the property test lost its teeth")
		}

		// SF over the trapped subsequence, using the same untrapped-node
		// closure the monitor applies at attach time.
		if len(tr.trappedSeq) > 0 {
			g := res.Meta.SyscallFlow
			trapped := map[uint32]bool{}
			for _, nr := range tr.trappedSeq {
				trapped[nr] = true
			}
			if !reachesTrapped(g, g.Start, tr.trappedSeq[0], trapped) {
				t.Errorf("%s: first trapped syscall %s not reachable from extracted SF starts",
					app, kernel.Name(tr.trappedSeq[0]))
			}
			for i := 1; i < len(tr.trappedSeq); i++ {
				prev, next := tr.trappedSeq[i-1], tr.trappedSeq[i]
				if !reachesTrapped(g, g.Edges[prev], next, trapped) {
					t.Errorf("%s: trapped transition %s -> %s not admitted by extracted SF graph",
						app, kernel.Name(prev), kernel.Name(next))
					break
				}
			}
		}
	}
}

// reachesTrapped reports whether want is reachable from the frontier set
// through untrapped intermediate nodes only — the monitor's attach-time
// projection of the transition graph onto the trapped syscall set.
func reachesTrapped(g *metadata.FlowGraph, frontier metadata.NrSet, want uint32, trapped map[uint32]bool) bool {
	seen := map[uint32]bool{}
	work := make([]uint32, 0, len(frontier))
	for nr := range frontier {
		work = append(work, nr)
	}
	for len(work) > 0 {
		nr := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[nr] {
			continue
		}
		seen[nr] = true
		if nr == want {
			return true
		}
		if trapped[nr] {
			continue // a trapped frontier node terminates its path
		}
		for succ := range g.Edges[nr] {
			work = append(work, succ)
		}
	}
	return false
}

// Covers reports whether p admits every fact of q in the given context —
// the per-context static ⊇ static check (extracted ⊇ traced for CF/SF
// looseness directions is not required; this is used fact-set-wise by
// tests). The returned slice lists q's facts missing from p, sorted.
func (p *Projection) Covers(q *Projection, ctx string) (bool, []string) {
	var missing []string
	mine := p.factSet(ctx)
	for _, f := range q.Facts(ctx) {
		if !mine[f] {
			missing = append(missing, f)
		}
	}
	return len(missing) == 0, missing
}

func (p *Projection) factSet(ctx string) map[string]bool {
	switch ctx {
	case "CT":
		return p.CT
	case "CF":
		return p.CF
	case "AI":
		return p.AI
	case "SF":
		return p.SF
	}
	return nil
}

// AdmitsNr reports whether syscall nr is callable at all.
func (p *Projection) AdmitsNr(nr uint32) bool {
	return p.CallTypes[nr].Callable()
}

// AdmitsDirectEdge reports whether caller may directly call callee: an
// unconstrained callee (no ValidCallers entry) admits everyone.
func (p *Projection) AdmitsDirectEdge(callee, caller string) bool {
	set, ok := p.ValidCallers[callee]
	if !ok {
		return true
	}
	return set[caller]
}

// AdmitsIndirectTarget reports whether fn may be reached indirectly.
func (p *Projection) AdmitsIndirectTarget(fn string) bool {
	return p.IndirectTargets[fn]
}
