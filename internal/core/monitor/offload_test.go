package monitor_test

import (
	"slices"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/seccomp"
	"bastion/internal/workload"
)

// offloadShape is the qualifying configuration: full mode, fs extension,
// call-type + argument-integrity, no control flow.
func offloadShape() monitor.Config {
	cfg := monitor.DefaultConfig()
	cfg.Mode = monitor.ModeFull
	cfg.Contexts = monitor.CallType | monitor.ArgIntegrity
	cfg.ExtendFS = true
	cfg.Offload = true
	return cfg
}

func compileApp(t *testing.T, app string) *core.Artifact {
	t.Helper()
	target, err := workload.NewTarget(app)
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.Compile(target.Build(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestOffloadResidualPolicy: the offloaded filter's policy must be exactly
// the pure policy with the offloaded syscalls moved from trap actions to
// in-filter arg rules — residual = full − offloaded, nothing gained,
// nothing lost.
func TestOffloadResidualPolicy(t *testing.T) {
	for _, app := range workload.Apps {
		t.Run(app, func(t *testing.T) {
			art := compileApp(t, app)
			cfg := offloadShape()
			pureCfg := cfg
			pureCfg.Offload = false
			pureGen, err := monitor.NewGeneration(0, art.Meta, pureCfg)
			if err != nil {
				t.Fatal(err)
			}
			offGen, err := monitor.NewGeneration(0, art.Meta, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan, pure, off := offGen.Offload, pureGen.Seccomp, offGen.Seccomp
			if len(plan.Rules) == 0 {
				t.Fatal("qualifying config derived an empty plan")
			}

			if len(off.ArgRules) != len(plan.Rules) {
				t.Fatalf("policy carries %d arg rules, plan has %d", len(off.ArgRules), len(plan.Rules))
			}
			for _, nr := range plan.Offloaded() {
				rule, ok := off.ArgRules[nr]
				if !ok {
					t.Fatalf("%s: planned but missing from policy", kernel.Name(nr))
				}
				if !slices.Equal(rule.Matches, plan.Rules[nr].Matches) ||
					rule.Match != seccomp.RetLog || rule.Else != seccomp.RetTrace {
					t.Fatalf("%s: rule diverged from plan: %+v", kernel.Name(nr), rule)
				}
				// Every offloaded syscall was a monitor trap in the pure
				// policy — offload never touches kills or default actions.
				if act, ok := pure.Actions[nr]; !ok || act != seccomp.RetTrace {
					t.Fatalf("%s: offloaded but pure policy action is %#x (present=%v)",
						kernel.Name(nr), act, ok)
				}
				if _, dup := off.Actions[nr]; dup {
					t.Fatalf("%s: present in both Actions and ArgRules", kernel.Name(nr))
				}
			}
			// Residual = full − offloaded: every non-offloaded action
			// survives untouched, and nothing else changed.
			if len(off.Actions)+len(off.ArgRules) != len(pure.Actions) {
				t.Fatalf("action count changed: %d+%d offloaded vs %d pure",
					len(off.Actions), len(off.ArgRules), len(pure.Actions))
			}
			for nr, act := range pure.Actions {
				if _, offloaded := plan.Rules[nr]; offloaded {
					continue
				}
				if got, ok := off.Actions[nr]; !ok || got != act {
					t.Fatalf("%s: residual action diverged: %#x vs %#x (present=%v)",
						kernel.Name(nr), got, act, ok)
				}
			}
			if off.Default != pure.Default {
				t.Fatalf("default action changed: %#x vs %#x", off.Default, pure.Default)
			}
		})
	}
}

// TestDeriveOffloadDisqualifiers: every config outside the qualifying
// shape must derive an empty plan — the offload fails closed to the pure
// monitor.
func TestDeriveOffloadDisqualifiers(t *testing.T) {
	art := compileApp(t, "nginx")
	cases := []struct {
		name string
		mut  func(*monitor.Config)
	}{
		{"disabled", func(c *monitor.Config) { c.Offload = false }},
		{"control-flow", func(c *monitor.Config) { c.Contexts |= monitor.ControlFlow }},
		{"no-extendfs", func(c *monitor.Config) { c.ExtendFS = false }},
		{"fetch-only", func(c *monitor.Config) { c.Mode = monitor.ModeFetchOnly }},
		{"hook-only", func(c *monitor.Config) { c.Mode = monitor.ModeHookOnly }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := offloadShape()
			tc.mut(&cfg)
			if plan := monitor.DeriveOffload(art.Meta, cfg); len(plan.Rules) != 0 {
				t.Fatalf("disqualified config offloaded %v", plan.Offloaded())
			}
		})
	}
	// Sanity: the unmutated shape qualifies, and never offloads a
	// sensitive syscall.
	plan := monitor.DeriveOffload(art.Meta, offloadShape())
	if len(plan.Rules) == 0 {
		t.Fatal("qualifying shape derived an empty plan")
	}
	for _, nr := range plan.Offloaded() {
		if kernel.IsSensitive(nr) {
			t.Fatalf("sensitive syscall %s offloaded", kernel.Name(nr))
		}
	}
}

// refVerdict is the monitor-semantics reference: a constant-argument rule
// allows iff every (position, value) equality holds over the full 64-bit
// register, otherwise it falls through to its Else action.
func refVerdict(pol *seccomp.Policy, d *seccomp.Data) uint32 {
	if rule, ok := pol.ArgRules[d.Nr]; ok {
		for _, m := range rule.Matches {
			if d.Args[m.Pos] != m.Val {
				return rule.Else
			}
		}
		return rule.Match
	}
	if act, ok := pol.Actions[d.Nr]; ok {
		return act
	}
	return pol.Default
}

// FuzzOffloadEquivalence builds random offload-shaped policies over the
// kernel's syscall table and asserts that for random argument vectors the
// compiled filter (linear and tree) answers exactly what the monitor's
// constant-argument verdict semantics would — including full 64-bit
// comparison of every argument register.
func FuzzOffloadEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint64(5), uint64(0), uint64(1<<32|5), uint64(0), uint64(0), uint64(0))
	f.Add([]byte{9, 0, 200, 3, 17, 255, 1, 2, 3, 4, 5, 6, 7, 8}, ^uint64(0), uint64(1), uint64(2), uint64(3), uint64(4), uint64(5))
	f.Fuzz(func(t *testing.T, raw []byte, a0, a1, a2, a3, a4, a5 uint64) {
		nrs := make([]uint32, 0, len(kernel.Names))
		for nr := range kernel.Names {
			nrs = append(nrs, nr)
		}
		slices.Sort(nrs)

		pol := &seccomp.Policy{
			Default:  seccomp.RetTrace,
			Actions:  map[uint32]uint32{},
			ArgRules: map[uint32]seccomp.ArgRule{},
		}
		actions := []uint32{seccomp.RetAllow, seccomp.RetLog, seccomp.RetTrace, seccomp.RetKill}
		args := [6]uint64{a0, a1, a2, a3, a4, a5}
		for i := 0; i+4 <= len(raw) && len(pol.ArgRules)+len(pol.Actions) < 12; i += 4 {
			nr := nrs[int(raw[i])%len(nrs)]
			if _, ok := pol.Actions[nr]; ok {
				continue
			}
			if _, ok := pol.ArgRules[nr]; ok {
				continue
			}
			nmatch := int(raw[i+1]) % 4
			if nmatch == 0 {
				pol.Actions[nr] = actions[int(raw[i+2])%len(actions)]
				continue
			}
			rule := seccomp.ArgRule{Match: seccomp.RetLog, Else: seccomp.RetTrace}
			for j := 0; j < nmatch; j++ {
				pos := (int(raw[i+2]) + j) % 6
				// Mix the fuzzed argument registers into the constants so
				// matches actually hit, and perturb the high word so 64-bit
				// comparison is exercised.
				val := args[pos]
				if raw[i+3]&(1<<j) != 0 {
					val ^= uint64(raw[(i+j)%len(raw)]) << 32
				}
				rule.Matches = append(rule.Matches, seccomp.ArgMatch{Pos: pos, Val: val})
			}
			pol.ArgRules[nr] = rule
		}

		linear, err := pol.Compile()
		if err != nil {
			t.Skip() // over-capacity or conflicting random policy
		}
		tree, err := pol.CompileTree()
		if err != nil {
			t.Fatalf("linear compiled but tree failed: %v", err)
		}
		// Probe every policy entry plus an absent nr (default path).
		probe := []uint32{0xfffff}
		for nr := range pol.Actions {
			probe = append(probe, nr)
		}
		for nr := range pol.ArgRules {
			probe = append(probe, nr)
		}
		for _, nr := range probe {
			d := &seccomp.Data{Nr: nr, Args: args}
			want := refVerdict(pol, d)
			got, _, err := seccomp.Run(linear, d)
			if err != nil {
				t.Fatalf("nr %d: linear run: %v", nr, err)
			}
			if got != want {
				t.Fatalf("nr %d args %x: linear filter said %#x, monitor semantics say %#x", nr, args, got, want)
			}
			gotTree, _, err := seccomp.Run(tree, d)
			if err != nil {
				t.Fatalf("nr %d: tree run: %v", nr, err)
			}
			if gotTree != want {
				t.Fatalf("nr %d args %x: tree filter said %#x, monitor semantics say %#x", nr, args, gotTree, want)
			}
		}
	})
}
