package bench

import (
	"reflect"
	"testing"

	"bastion/internal/attacks"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/obs"
)

// TestDefenseLadders pins the Figure 3 mitigation stacks and the Table 6
// defenses to the configurations the evaluation has always launched:
// name, CET, CFI, whether the monitor is attached and, when it is, a
// default monitor configuration (full mode, accept fast path on) narrowed
// to the listed contexts. It then checks that editing a copy of a
// canonical defense, as every ablation does, leaves the canonical one
// unchanged.
func TestDefenseLadders(t *testing.T) {
	type rung struct {
		name     string
		cet, cfi bool
		attached bool
		contexts monitor.Context
	}
	ct, cf, ai, sf := monitor.CallType, monitor.ControlFlow, monitor.ArgIntegrity, monitor.SyscallFlow
	check := func(ladder string, got []core.Defense, want []rung) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rungs, want %d", ladder, len(got), len(want))
		}
		for i, w := range want {
			d := got[i]
			if d.Name != w.name || d.String() != w.name || d.CET != w.cet || d.CFI != w.cfi || d.Coarse ||
				d.Monitored() != w.attached || d.Monitor.Contexts != w.contexts {
				t.Errorf("%s[%d] = %s: CET %v, CFI %v, coarse %v, attached %v, contexts %v; want %+v",
					ladder, i, d.Name, d.CET, d.CFI, d.Coarse, d.Monitored(), d.Monitor.Contexts, w)
				continue
			}
			if !w.attached {
				continue
			}
			wantCfg := monitor.Config{
				Policy:         monitor.Policy{Contexts: w.contexts},
				Mode:           monitor.ModeFull,
				AcceptFastPath: true,
				MaxUnwindDepth: 64,
				Costs:          monitor.DefaultCosts(),
			}
			if !reflect.DeepEqual(d.Monitor, wantCfg) {
				t.Errorf("%s[%d] = %s: monitor config %+v, want %+v", ladder, i, d.Name, d.Monitor, wantCfg)
			}
		}
	}
	check("Mitigations", Mitigations, []rung{
		{"vanilla", false, false, false, 0},
		{"LLVM CFI", false, true, false, 0},
		{"CET", true, false, false, 0},
		{"CET+CT", true, false, true, ct},
		{"CET+CT+CF", true, false, true, ct | cf},
		{"CET+CT+CF+AI+SF", true, false, true, ct | cf | ai | sf},
	})
	table6 := []rung{
		{"unprotected", false, false, false, 0},
		{"CT", false, false, true, ct},
		{"CF", false, false, true, cf},
		{"AI", false, false, true, ai},
		{"SF", false, false, true, sf},
		{"BASTION", false, false, true, ct | cf | ai | sf},
		{"CET", true, false, false, 0},
		{"LLVM-CFI", false, true, false, 0},
	}
	check("attacks.Defenses", attacks.Defenses, table6)

	edit := func(d *core.Defense) {
		d.Monitor.Sink = &obs.BufferSink{}
		d.Monitor.FlightN = 32
		d.Monitor.Contexts = monitor.CallType
	}
	all := attacks.DefAll
	edit(&all)
	for _, d := range attacks.Defenses {
		edit(&d)
	}
	full := MitFull
	edit(&full)
	spec := RunSpec{App: "nginx", Mitigation: MitFull}
	edit(&spec.Mitigation)
	check("attacks.Defenses after edits", attacks.Defenses, table6)
	check("DefAll after edits", []core.Defense{attacks.DefAll}, table6[5:6])
	check("Mitigations after edits", []core.Defense{MitFull, Mitigations[5]}, []rung{
		{"CET+CT+CF+AI+SF", true, false, true, ct | cf | ai | sf},
		{"CET+CT+CF+AI+SF", true, false, true, ct | cf | ai | sf},
	})
}
