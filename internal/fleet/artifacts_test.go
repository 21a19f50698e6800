package fleet

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/obs"
	"bastion/internal/workload"
)

// TestArtifactsSingleflight: N goroutines requesting the same key get the
// same immutable artifact back, and the cache compiles exactly once —
// per program and per filter key, the launch and the reload generation
// sharing one compile.
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
		if filters[i].Generation != filters[0].Generation {
			t.Fatal("concurrent Config calls returned distinct launch generations")
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
	launch := filters[0].Generation
	if launch.ID != 0 || gens[0].ID != 1 || len(gens[0].Filter) == 0 {
		t.Errorf("generations malformed: launch %d, reload %d with %d filter instructions",
			launch.ID, gens[0].ID, len(gens[0].Filter))
	}
	if &gens[0].Filter[0] != &launch.Filter[0] || gens[0].Offload != launch.Offload {
		t.Error("the reload generation recompiled the launch generation's key")
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
// shaping the generation (Mode and each Policy field, all in filterKey) or
// not (everything else). Changing an unkeyed field leaves the filter key
// and the whole compiled generation — filter, offload plan, function
// index and flow projection — unchanged, so configs sharing a key may
// share a generation; each keyed field changes the key, and the filter
// for at least one app and starting config, so the key holds no dead
// field. A new Config field fails the test until it is classified here.
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
		"InKernel":       func(c *monitor.Config) { c.InKernel = !c.InKernel },
		"Generation":     func(c *monitor.Config) { c.Generation = &monitor.Generation{ID: 7} },
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
	for _, app := range workload.Apps {
		art, err := arts.Compiled(app)
		if err != nil {
			t.Fatal(err)
		}
		build := func(cfg monitor.Config) *monitor.Generation {
			t.Helper()
			g, err := monitor.NewGeneration(0, art.Meta, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		for startName, start := range starts {
			want := build(start)
			for name, mut := range unkeyed {
				cfg := start
				mut(&cfg)
				if keyOf(app, cfg) != keyOf(app, start) {
					t.Errorf("%s/%s: changing %s changed the filter key", app, startName, name)
				}
				if !reflect.DeepEqual(build(cfg), want) {
					t.Errorf("%s/%s: changing %s changed the generation, but the filter key ignores it", app, startName, name)
				}
			}
			for name, mut := range keyed {
				cfg := start
				mut(&cfg)
				if keyOf(app, cfg) == keyOf(app, start) {
					t.Errorf("%s/%s: changing %s left the filter key unchanged", app, startName, name)
				}
				if !slices.Equal(build(cfg).Filter, want.Filter) {
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

// TestTenantsShareOneGeneration: every tenant of one app and policy
// launches under the one compiled generation (pointer-equal), the reload
// generation under the same policy is a stamp on that compile, and the
// cache compiles one generation per app.
func TestTenantsShareOneGeneration(t *testing.T) {
	cfg := DefaultConfig(6, 2)
	cfg.ReloadAt, cfg.ReloadSpec = 1, &PolicySpec{}
	arts := NewArtifacts()
	var pool turnover
	launched := map[string]*monitor.Generation{}
	for idx := 0; idx < cfg.Tenants; idx++ {
		app := cfg.appOf(idx)
		prot, target, err := launchTenant(&cfg, idx, app, false, arts, &pool)
		if err != nil {
			t.Fatal(err)
		}
		g := prot.Monitor.Generation()
		if first, ok := launched[app]; !ok {
			launched[app] = g
		} else if g != first {
			t.Errorf("tenant %d (%s) launched under its own generation", idx, app)
		}
		reload, err := reloadGeneration(&cfg, app, arts)
		if err != nil {
			t.Fatal(err)
		}
		if reload.ID != 1 || &reload.Filter[0] != &g.Filter[0] || reload.Offload != g.Offload {
			t.Errorf("tenant %d (%s): reload generation %d is not a stamp on the launch compile", idx, app, reload.ID)
		}
		drainMonitor(&TenantResult{}, prot, target, false)
	}
	if got := arts.FilterCompiles(); got != len(cfg.Apps) {
		t.Errorf("%d tenants compiled %d generations, want one per app (%d)", cfg.Tenants, got, len(cfg.Apps))
	}
}
