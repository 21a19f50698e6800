package fleet

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/obs"
	"bastion/internal/seccomp"
)

// TestArtifactsSingleflight: N goroutines requesting the same key get the
// same immutable artifact back, and the cache compiles exactly once —
// per program, per filter key, and per reload generation.
func TestArtifactsSingleflight(t *testing.T) {
	const n = 32
	arts := NewArtifacts()
	mcfg := monitor.DefaultConfig()

	var wg sync.WaitGroup
	compiled := make([]*core.Artifact, n)
	filters := make([]monitor.Config, n)
	gens := make([]*monitor.Generation, n)
	errs := make([]error, 3*n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			compiled[i], errs[3*i] = arts.Compiled("nginx")
			filters[i], errs[3*i+1] = arts.Config("nginx", mcfg)
			gens[i], errs[3*i+2] = arts.Generation(1, "nginx", mcfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if compiled[i] != compiled[0] {
			t.Fatal("concurrent Compiled calls returned distinct artifacts")
		}
		if &filters[i].Filter[0] != &filters[0].Filter[0] {
			t.Fatal("concurrent Config calls returned distinct filter programs")
		}
		if gens[i] != gens[0] {
			t.Fatal("concurrent Generation calls returned distinct generations")
		}
	}
	if got := arts.Compiles(); got != 1 {
		t.Errorf("%d goroutines triggered %d program compiles, want 1", n, got)
	}
	if got := arts.FilterCompiles(); got != 1 {
		t.Errorf("%d goroutines triggered %d filter compiles, want 1", n, got)
	}
	if gens[0].ID != 1 || gens[0].FilterID == 0 {
		t.Errorf("generation malformed: %+v", gens[0])
	}
}

// TestArtifactsDistinctKeys: different filter-relevant configurations get
// their own cached filters rather than aliasing one entry.
func TestArtifactsDistinctKeys(t *testing.T) {
	arts := NewArtifacts()
	plain := monitor.DefaultConfig()
	tree := plain
	tree.TreeFilter = true
	if _, err := arts.Config("nginx", plain); err != nil {
		t.Fatal(err)
	}
	if _, err := arts.Config("nginx", tree); err != nil {
		t.Fatal(err)
	}
	if got := arts.FilterCompiles(); got != 2 {
		t.Errorf("distinct filter keys compiled %d filters, want 2", got)
	}
	if got := arts.Compiles(); got != 1 {
		t.Errorf("two filter keys recompiled the program: %d compiles, want 1", got)
	}
}

// TestFilterKeyComplete: every monitor.Config field is classified as
// shaping the filter (Mode and each Policy field, all in filterKey) or not
// (everything else). Changing an unkeyed field leaves the filter key and
// BuildFilter's output byte-identical, so configs sharing a key may share
// a filter; each keyed field changes the key, and the output for at least
// one app and starting config, so the key holds no dead field. A new
// Config field fails the test until it is classified here.
func TestFilterKeyComplete(t *testing.T) {
	keyed := map[string]func(*monitor.Config){
		"Mode":       func(c *monitor.Config) { c.Mode = monitor.ModeHookOnly },
		"Contexts":   func(c *monitor.Config) { c.Contexts &^= monitor.CallType },
		"ExtendFS":   func(c *monitor.Config) { c.ExtendFS = !c.ExtendFS },
		"TreeFilter": func(c *monitor.Config) { c.TreeFilter = !c.TreeFilter },
		"Offload":    func(c *monitor.Config) { c.Offload = !c.Offload },
	}
	unkeyed := map[string]func(*monitor.Config){
		"AcceptFastPath": func(c *monitor.Config) { c.AcceptFastPath = !c.AcceptFastPath },
		"ReportOnly":     func(c *monitor.Config) { c.ReportOnly = !c.ReportOnly },
		"InKernel":       func(c *monitor.Config) { c.InKernel = !c.InKernel },
		"Filter":         func(c *monitor.Config) { c.Filter = []seccomp.Insn{seccomp.RetConst(seccomp.RetKill)} },
		"Sink":           func(c *monitor.Config) { c.Sink = &obs.BufferSink{} },
		"FlightN":        func(c *monitor.Config) { c.FlightN += 8 },
		"MaxUnwindDepth": func(c *monitor.Config) { c.MaxUnwindDepth /= 2 },
		"Costs":          func(c *monitor.Config) { c.Costs.TrapRoundTrip *= 2 },
	}

	// Mode and the fields of the embedded Policy are keyed; every other
	// field must be unkeyed.
	var classify func(typ reflect.Type, inPolicy bool)
	classify = func(typ reflect.Type, inPolicy bool) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous && f.Type == reflect.TypeOf(monitor.Policy{}) {
				classify(f.Type, true)
				continue
			}
			want, other := unkeyed, keyed
			if inPolicy || f.Name == "Mode" {
				want, other = keyed, unkeyed
			}
			if want[f.Name] == nil {
				t.Errorf("monitor.Config field %s is unclassified: move it into monitor.Policy if it shapes the filter, else add it to the unkeyed list", f.Name)
			}
			if other[f.Name] != nil {
				t.Errorf("monitor.Config field %s is classified on the wrong side", f.Name)
			}
		}
	}
	classify(reflect.TypeOf(monitor.Config{}), false)

	offloadCfg := monitor.DefaultConfig()
	offloadCfg.Policy = monitor.Policy{Contexts: monitor.CallType | monitor.ArgIntegrity, ExtendFS: true, Offload: true}
	starts := map[string]monitor.Config{"default": monitor.DefaultConfig(), "fleet-offload": offloadCfg}

	arts := NewArtifacts()
	moved := map[string]bool{}
	for _, app := range []string{"nginx", "sqlite", "vsftpd"} {
		art, err := arts.Compiled(app)
		if err != nil {
			t.Fatal(err)
		}
		build := func(cfg monitor.Config) []seccomp.Insn {
			t.Helper()
			prog, err := monitor.BuildFilter(art.Meta, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return prog
		}
		for startName, start := range starts {
			want := build(start)
			for name, mut := range unkeyed {
				cfg := start
				mut(&cfg)
				if keyOf(app, cfg) != keyOf(app, start) {
					t.Errorf("%s/%s: changing %s changed the filter key", app, startName, name)
				}
				if !slices.Equal(build(cfg), want) {
					t.Errorf("%s/%s: changing %s changed the filter, but the filter key ignores it", app, startName, name)
				}
			}
			for name, mut := range keyed {
				cfg := start
				mut(&cfg)
				if keyOf(app, cfg) == keyOf(app, start) {
					t.Errorf("%s/%s: changing %s left the filter key unchanged", app, startName, name)
				}
				if !slices.Equal(build(cfg), want) {
					moved[name] = true
				}
			}
		}
	}
	for name := range keyed {
		if !moved[name] {
			t.Errorf("%s is in the filter key but changed no app's filter from any starting config", name)
		}
	}
}
