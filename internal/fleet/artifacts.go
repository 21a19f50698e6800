// Package fleet implements the BASTION fleet supervisor: it runs many
// independent protected guest instances (tenants) concurrently, each with
// its own kernel, clock, machine, and monitor, while the
// expensive per-workload artifacts — the instrumented IR program, its
// context metadata, and the compiled seccomp filter — are compiled once
// and shared immutably across every tenant that runs the same workload.
//
// The paper evaluates one monitored process at a time; this package is
// the layer that multiplies the single-guest fast paths to a machine's
// worth of protected processes. A tenant whose guest is killed by the
// monitor or faults is restarted with capped exponential backoff without
// disturbing its siblings, and the supervisor aggregates per-tenant and
// fleet-wide statistics into one Report.
package fleet

import (
	"sync"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/ir"
	"bastion/internal/seccomp"
	"bastion/internal/workload"
)

// Artifacts compiles workload artifacts once per key and shares the
// results. All methods are safe for concurrent use; the returned programs,
// metadata, and filters are immutable after compilation, so any number of
// tenants (or bench experiments) may launch from them simultaneously.
type Artifacts struct {
	mu       sync.Mutex
	compiled map[string]*artEntry
	raw      map[string]*rawEntry
	filters  map[filterKey]*filterEntry
	gens     map[genKey]*genEntry

	compiles       int
	filterCompiles int
}

type artEntry struct {
	once sync.Once
	art  *core.Artifact
	err  error
}

type rawEntry struct {
	once sync.Once
	prog *ir.Program
	err  error
}

// filterKey is the filter-relevant subset of monitor.Config.
type filterKey struct {
	app        string
	mode       monitor.Mode
	contexts   monitor.Context
	extendFS   bool
	treeFilter bool
	offload    bool
}

type filterEntry struct {
	once sync.Once
	prog []seccomp.Insn
	err  error
}

// genKey identifies a hot-reload generation bundle: the filter key plus
// the generation ID.
type genKey struct {
	filterKey
	id uint64
}

type genEntry struct {
	once sync.Once
	gen  *monitor.Generation
	err  error
}

// NewArtifacts returns an empty shared-artifact cache.
func NewArtifacts() *Artifacts {
	return &Artifacts{
		compiled: map[string]*artEntry{},
		raw:      map[string]*rawEntry{},
		filters:  map[filterKey]*filterEntry{},
		gens:     map[genKey]*genEntry{},
	}
}

// Compiled returns the instrumented artifact (program + metadata +
// instrumentation stats) for the named workload application, compiling it
// on first use. The artifact is read-only after compilation: machines copy
// globals into their own address spaces at load, and the monitor only
// reads metadata.
func (a *Artifacts) Compiled(app string) (*core.Artifact, error) {
	a.mu.Lock()
	e := a.compiled[app]
	if e == nil {
		e = &artEntry{}
		a.compiled[app] = e
	}
	a.mu.Unlock()
	e.once.Do(func() {
		t, err := workload.NewTarget(app)
		if err != nil {
			e.err = err
			return
		}
		e.art, e.err = core.Compile(t.Build(), core.CompileOptions{})
		a.count(&a.compiles)
	})
	return e.art, e.err
}

// Raw returns the uninstrumented, linked program for the named workload
// application — the baseline (vanilla/CET/CFI) launch image — compiling
// and linking it on first use.
func (a *Artifacts) Raw(app string) (*ir.Program, error) {
	a.mu.Lock()
	e := a.raw[app]
	if e == nil {
		e = &rawEntry{}
		a.raw[app] = e
	}
	a.mu.Unlock()
	e.once.Do(func() {
		t, err := workload.NewTarget(app)
		if err != nil {
			e.err = err
			return
		}
		prog := t.Build()
		if err := prog.Link(); err != nil {
			e.err = err
			return
		}
		e.prog = prog
		a.count(&a.compiles)
	})
	return e.prog, e.err
}

// Config returns cfg with the precompiled seccomp filter for (app, cfg)
// attached, compiling the filter on first use per filter-relevant key.
func (a *Artifacts) Config(app string, cfg monitor.Config) (monitor.Config, error) {
	art, err := a.Compiled(app)
	if err != nil {
		return cfg, err
	}
	key := filterKey{
		app:        app,
		mode:       cfg.Mode,
		contexts:   cfg.Contexts,
		extendFS:   cfg.ExtendFS,
		treeFilter: cfg.TreeFilter,
		offload:    cfg.Offload,
	}
	a.mu.Lock()
	e := a.filters[key]
	if e == nil {
		e = &filterEntry{}
		a.filters[key] = e
	}
	a.mu.Unlock()
	e.once.Do(func() {
		e.prog, e.err = monitor.BuildFilter(art.Meta, cfg)
		a.count(&a.filterCompiles)
	})
	if e.err != nil {
		return cfg, e.err
	}
	cfg.Filter = e.prog
	return cfg, nil
}

// Generation returns the hot-reload generation bundle for (id, app, cfg),
// building it once per key and sharing the immutable result across every
// tenant that stages it. The bundle's filter goes through the same cached
// compilation as launch filters, so reload filter compiles are counted
// (and amortized) exactly like launch ones.
func (a *Artifacts) Generation(id uint64, app string, cfg monitor.Config) (*monitor.Generation, error) {
	art, err := a.Compiled(app)
	if err != nil {
		return nil, err
	}
	cfg, err = a.Config(app, cfg)
	if err != nil {
		return nil, err
	}
	key := genKey{
		filterKey: filterKey{
			app:        app,
			mode:       cfg.Mode,
			contexts:   cfg.Contexts,
			extendFS:   cfg.ExtendFS,
			treeFilter: cfg.TreeFilter,
			offload:    cfg.Offload,
		},
		id: id,
	}
	a.mu.Lock()
	e := a.gens[key]
	if e == nil {
		e = &genEntry{}
		a.gens[key] = e
	}
	a.mu.Unlock()
	e.once.Do(func() {
		e.gen, e.err = monitor.NewGeneration(id, art.Meta, cfg, cfg.Filter)
	})
	return e.gen, e.err
}

func (a *Artifacts) count(c *int) {
	a.mu.Lock()
	*c++
	a.mu.Unlock()
}

// Compiles reports how many program compilations (instrumented or raw)
// this cache has performed — the shared-vs-per-tenant ablation's
// deterministic setup-cost measure.
func (a *Artifacts) Compiles() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.compiles
}

// FilterCompiles reports how many seccomp filter compilations this cache
// has performed.
func (a *Artifacts) FilterCompiles() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.filterCompiles
}
