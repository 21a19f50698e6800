package audit

import (
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// indirectObservation is one dynamically executed indirect-call edge.
type indirectObservation struct {
	site   uint64 // callsite instruction address
	target string // resolved callee
}

// indirectRecorder is a passive vm.Mitigation that records every indirect
// call the guest actually performs.
type indirectRecorder struct {
	seen map[indirectObservation]bool
}

func newIndirectRecorder() *indirectRecorder {
	return &indirectRecorder{seen: map[indirectObservation]bool{}}
}

func (r *indirectRecorder) OnCall(m *vm.Machine, retaddr uint64)      {}
func (r *indirectRecorder) OnRet(m *vm.Machine, retaddr uint64) error { return nil }

func (r *indirectRecorder) OnIndirectCall(m *vm.Machine, in *ir.Instr, target uint64) error {
	fn, _ := m.CurrentFunc()
	var site uint64
	for i := range fn.Code {
		if &fn.Code[i] == in {
			site = fn.InstrAddr(i)
			break
		}
	}
	name := "?"
	if callee, _ := m.Prog.FuncAt(target); callee != nil {
		name = callee.Name
	}
	r.seen[indirectObservation{site: site, target: name}] = true
	return nil
}

// TestStaticCoversDynamic is the soundness property of the points-to
// refinement, as a property test over the app catalog: every indirect-call
// edge observed while driving the real guest workloads must be inside the
// statically predicted target set of its callsite (static ⊇ dynamic).
func TestStaticCoversDynamic(t *testing.T) {
	const units = 40
	for _, app := range workload.Apps {
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
		rec := newIndirectRecorder()
		prot, err := core.Launch(art, k, monitor.DefaultConfig(),
			vm.WithMaxSteps(1<<34), vm.WithMitigations(rec))
		if err != nil {
			t.Fatalf("%s: launch: %v", app, err)
		}
		if _, err := workload.Run(target, prot, units); err != nil {
			t.Fatalf("%s: workload: %v", app, err)
		}

		if app == "nginx" && len(rec.seen) == 0 {
			t.Errorf("nginx workload exercised no indirect calls; the property test lost its teeth")
		}
		for obs := range rec.seen {
			s, ok := art.Meta.IndirectSites[obs.site]
			if !ok {
				t.Errorf("%s: dynamic indirect call at %#x has no static site record", app, obs.site)
				continue
			}
			inRefined := false
			for _, tgt := range s.Targets {
				if tgt == obs.target {
					inRefined = true
					break
				}
			}
			if !inRefined {
				t.Errorf("%s: observed %s at %s:%#x outside the refined target set %v",
					app, obs.target, s.Caller, obs.site, s.Targets)
			}
		}
	}
}
