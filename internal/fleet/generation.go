package fleet

import (
	"bastion/internal/core/monitor"
)

// PolicySpec names the policy a hot reload swaps the fleet to: the
// policy-relevant monitor knobs that, together with the workload's
// metadata, determine the generation's seccomp filter and verdicts. Mode
// and the telemetry plane are launch decisions and stay fixed across
// reloads.
type PolicySpec struct {
	// Contexts is the enforced context mask; UseContexts distinguishes an
	// explicit mask from the AllContexts default (mirroring Config).
	Contexts    monitor.Context
	UseContexts bool

	ExtendFS   bool
	TreeFilter bool
	Offload    bool
}

func (s *PolicySpec) contexts() monitor.Context {
	if s.UseContexts {
		return s.Contexts
	}
	return monitor.AllContexts
}

// apply grafts the spec onto a tenant's launch monitor configuration,
// clearing any precompiled filter so the generation compiles (or cache-
// resolves) one that matches the new knobs.
func (s *PolicySpec) apply(cfg monitor.Config) monitor.Config {
	cfg.Contexts = s.contexts()
	cfg.ExtendFS = s.ExtendFS
	cfg.TreeFilter = s.TreeFilter
	cfg.Offload = s.Offload
	cfg.Filter = nil
	return cfg
}

// reloadGeneration resolves the fleet's reload generation (ID 1) for one
// workload through the artifact cache: the metadata is the workload's
// compiled metadata, the filter is compiled once per filter key and
// shared, and the Generation bundle itself is built once and staged into
// every tenant running that workload.
func reloadGeneration(cfg *Config, app string, arts *Artifacts) (*monitor.Generation, error) {
	return arts.Generation(1, app, cfg.ReloadSpec.apply(cfg.monitorConfig()))
}
