package monitor_test

import (
	"reflect"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/metadata"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/vm"
)

// launchPrecompiled launches art on a fresh kernel under cfg.
func launchPrecompiled(t *testing.T, art *core.Artifact, cfg monitor.Config) (*core.Protected, error) {
	t.Helper()
	k := kernel.New(nil)
	if err := k.FS.WriteFile("/bin/app", []byte("x"), 0o5); err != nil {
		t.Fatal(err)
	}
	return core.Launch(art, k, cfg, vm.WithMaxSteps(1<<22))
}

// TestPrecompiledFilterMatchesAttach: launching with a generation
// precompiled by NewGeneration via Config.Generation is indistinguishable
// from letting Attach compile one — the same generation, field for field,
// the same instructions on the process, the same runtime behavior.
func TestPrecompiledFilterMatchesAttach(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*monitor.Config)
	}{
		{"default", func(c *monitor.Config) {}},
		{"tree", func(c *monitor.Config) { c.TreeFilter = true }},
		{"extendfs", func(c *monitor.Config) { c.ExtendFS = true }},
		{"offload", func(c *monitor.Config) {
			c.Contexts, c.ExtendFS, c.Offload = monitor.CallType|monitor.ArgIntegrity, true, true
		}},
		{"hook-only", func(c *monitor.Config) { c.Mode = monitor.ModeHookOnly }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := monitor.DefaultConfig()
			tc.mut(&cfg)

			art, err := core.Compile(buildVictim(), core.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			baseline, err := launchPrecompiled(t, art, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := baseline.Proc.SeccompFilter()
			if len(want) == 0 {
				t.Fatal("attach installed no filter")
			}

			pre := cfg
			if pre.Generation, err = monitor.NewGeneration(0, art.Meta, cfg); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pre.Generation, baseline.Monitor.Generation()) {
				t.Fatal("NewGeneration differs from the generation Attach compiles")
			}

			prot, err := launchPrecompiled(t, art, pre)
			if err != nil {
				t.Fatal(err)
			}
			if prot.Monitor.Generation() != pre.Generation {
				t.Fatal("precompiled launch did not install the precompiled generation")
			}
			if !reflect.DeepEqual(prot.Proc.SeccompFilter(), want) {
				t.Fatal("precompiled launch installed a different filter")
			}

			// Behavior check: the benign program runs identically.
			if _, err := prot.Machine.CallFunction("main"); err != nil {
				t.Fatalf("benign run under precompiled generation: %v", err)
			}
			if _, err := baseline.Machine.CallFunction("main"); err != nil {
				t.Fatalf("benign run under attach-compiled generation: %v", err)
			}
			if prot.Proc.FilterSteps != baseline.Proc.FilterSteps {
				t.Errorf("filter evaluation steps differ: %d vs %d",
					prot.Proc.FilterSteps, baseline.Proc.FilterSteps)
			}
		})
	}
}

// TestPrecompiledGenerationMismatchFailsClosed: Attach refuses a
// precompiled generation compiled for other metadata, another Mode or
// another Policy, or not compiled by NewGeneration at all, instead of
// installing a filter and tables the config does not describe.
func TestPrecompiledGenerationMismatchFailsClosed(t *testing.T) {
	art, err := core.Compile(buildVictim(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := monitor.DefaultConfig()
	compile := func(meta *metadata.Metadata, mut func(*monitor.Config)) *monitor.Generation {
		built := cfg
		mut(&built)
		g, err := monitor.NewGeneration(0, meta, built)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	other := *art.Meta
	same := compile(art.Meta, func(*monitor.Config) {})
	if _, err := launchPrecompiled(t, art, withGeneration(cfg, same)); err != nil {
		t.Fatalf("matching generation refused: %v", err)
	}
	for name, g := range map[string]*monitor.Generation{
		"metadata": compile(&other, func(*monitor.Config) {}),
		"mode":     compile(art.Meta, func(c *monitor.Config) { c.Mode = monitor.ModeHookOnly }),
		"policy":   compile(art.Meta, func(c *monitor.Config) { c.Contexts = monitor.CallType }),
		"literal":  {Meta: art.Meta, Mode: cfg.Mode, Policy: cfg.Policy, Seccomp: same.Seccomp, Filter: same.Filter, Offload: same.Offload},
	} {
		t.Run(name, func(t *testing.T) {
			if prot, err := launchPrecompiled(t, art, withGeneration(cfg, g)); err == nil {
				t.Fatalf("mismatched generation installed (contexts %v, mode %v)",
					prot.Monitor.Cfg.Contexts, prot.Monitor.Cfg.Mode)
			}
		})
	}
}

func withGeneration(cfg monitor.Config, g *monitor.Generation) monitor.Config {
	cfg.Generation = g
	return cfg
}
