// Package fleet implements the BASTION fleet supervisor: it runs many
// independent protected guest instances (tenants) concurrently, each with
// its own kernel, clock, machine, and monitor, while the
// expensive per-workload artifacts — the instrumented IR program, its
// context metadata, and the compiled monitor generation — are compiled once
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
	"sync/atomic"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/ir"
	"bastion/internal/workload"
)

// Artifacts compiles workload artifacts once per key and shares the
// results. All methods are safe for concurrent use; the returned programs,
// metadata, and generations are immutable after compilation, so any number
// of tenants (or bench experiments) may launch from them simultaneously.
type Artifacts struct {
	compiled onceMap[string, *core.Artifact]
	raw      onceMap[string, *ir.Program]
	gens     onceMap[genKey, *monitor.Generation]

	compiles       atomic.Int64
	filterCompiles atomic.Int64
}

// onceMap builds one value per key, once: concurrent callers for the same
// key wait for the first caller's build and share its result and error.
type onceMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*onceCell[V]
}

type onceCell[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (o *onceMap[K, V]) get(k K, build func() (V, error)) (V, error) {
	o.mu.Lock()
	c := o.m[k]
	if c == nil {
		if o.m == nil {
			o.m = map[K]*onceCell[V]{}
		}
		c = &onceCell[V]{}
		o.m[k] = c
	}
	o.mu.Unlock()
	c.once.Do(func() { c.v, c.err = build() })
	return c.v, c.err
}

// filterKey is everything of a monitor.Config that shapes its generation
// (TestFilterKeyComplete checks that nothing else does).
type filterKey struct {
	app    string
	mode   monitor.Mode
	policy monitor.Policy
}

func keyOf(app string, cfg monitor.Config) filterKey {
	return filterKey{app: app, mode: cfg.Mode, policy: cfg.Policy}
}

// genKey identifies a generation: the filter key, which decides everything
// compiled, plus the ID stamped on the compiled value.
type genKey struct {
	filterKey
	id uint64
}

// NewArtifacts returns an empty shared-artifact cache.
func NewArtifacts() *Artifacts { return &Artifacts{} }

// Compiled returns the instrumented artifact (program + metadata +
// instrumentation stats) for the named workload application, compiling it
// on first use. The artifact is read-only after compilation: machines copy
// globals into their own address spaces at load, and the monitor only
// reads metadata.
func (a *Artifacts) Compiled(app string) (*core.Artifact, error) {
	return a.compiled.get(app, func() (*core.Artifact, error) {
		t, err := workload.NewTarget(app)
		if err != nil {
			return nil, err
		}
		art, err := core.Compile(t.Build(), core.CompileOptions{})
		a.compiles.Add(1)
		return art, err
	})
}

// Raw returns the uninstrumented, linked program for the named workload
// application — the baseline (vanilla/CET/CFI) launch image — compiling
// and linking it on first use.
func (a *Artifacts) Raw(app string) (*ir.Program, error) {
	return a.raw.get(app, func() (*ir.Program, error) {
		t, err := workload.NewTarget(app)
		if err != nil {
			return nil, err
		}
		prog := t.Build()
		if err := prog.Link(); err != nil {
			return nil, err
		}
		a.compiles.Add(1)
		return prog, nil
	})
}

// Config returns cfg carrying the precompiled launch generation for (app,
// cfg).
func (a *Artifacts) Config(app string, cfg monitor.Config) (monitor.Config, error) {
	g, err := a.Generation(0, app, cfg)
	cfg.Generation = g
	return cfg, err
}

// Generation returns generation id for (app, cfg). The generation is
// compiled once per filter key, on first use under any ID, and shared by
// every launch and reload under that key: a generation with another ID is
// a copy of the compiled one that differs only in its stamp. Each
// (key, ID) resolves to one shared value, so launch and reload compiles are
// counted, and amortized, alike.
func (a *Artifacts) Generation(id uint64, app string, cfg monitor.Config) (*monitor.Generation, error) {
	return a.gens.get(genKey{keyOf(app, cfg), id}, func() (*monitor.Generation, error) {
		if id != 0 {
			g, err := a.Generation(0, app, cfg)
			if err != nil {
				return nil, err
			}
			stamped := *g
			stamped.ID = id
			return &stamped, nil
		}
		art, err := a.Compiled(app)
		if err != nil {
			return nil, err
		}
		a.filterCompiles.Add(1)
		return monitor.NewGeneration(0, art.Meta, cfg)
	})
}

// Compiles reports how many program compilations (instrumented or raw)
// this cache has performed — the shared-vs-per-tenant ablation's
// deterministic setup-cost measure.
func (a *Artifacts) Compiles() int { return int(a.compiles.Load()) }

// FilterCompiles reports how many generations (each with its seccomp
// filter) this cache has compiled.
func (a *Artifacts) FilterCompiles() int { return int(a.filterCompiles.Load()) }
