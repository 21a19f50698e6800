package monitor_test

import (
	"reflect"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/vm"
)

// TestPrecompiledFilterMatchesAttach: installing a filter precompiled with
// BuildFilter via Config.Filter is indistinguishable from letting Attach
// compile it — same instructions on the process, same runtime behavior.
func TestPrecompiledFilterMatchesAttach(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*monitor.Config)
	}{
		{"default", func(c *monitor.Config) {}},
		{"tree", func(c *monitor.Config) { c.TreeFilter = true }},
		{"extendfs", func(c *monitor.Config) { c.ExtendFS = true }},
		{"hook-only", func(c *monitor.Config) { c.Mode = monitor.ModeHookOnly }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := monitor.DefaultConfig()
			tc.mut(&cfg)

			baseline := launch(t, cfg)
			want := baseline.Proc.SeccompFilter()
			if len(want) == 0 {
				t.Fatal("attach installed no filter")
			}

			art, err := core.Compile(buildVictim(), core.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pre := cfg
			if pre.Filter, err = monitor.BuildFilter(art.Meta, cfg); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pre.Filter, want) {
				t.Fatal("BuildFilter output differs from the filter Attach compiles")
			}

			k := kernel.New(nil)
			if err := k.FS.WriteFile("/bin/app", []byte("x"), 0o5); err != nil {
				t.Fatal(err)
			}
			prot, err := core.Launch(art, k, pre, vm.WithMaxSteps(1<<22))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(prot.Proc.SeccompFilter(), want) {
				t.Fatal("precompiled launch installed a different filter")
			}

			// Behavior check: the benign program runs identically.
			if _, err := prot.Machine.CallFunction("main"); err != nil {
				t.Fatalf("benign run under precompiled filter: %v", err)
			}
			if _, err := baseline.Machine.CallFunction("main"); err != nil {
				t.Fatalf("benign run under attach-compiled filter: %v", err)
			}
			if prot.Proc.FilterSteps != baseline.Proc.FilterSteps {
				t.Errorf("filter evaluation steps differ: %d vs %d",
					prot.Proc.FilterSteps, baseline.Proc.FilterSteps)
			}
		})
	}
}
