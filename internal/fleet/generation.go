package fleet

import (
	"bastion/internal/core/monitor"
)

// PolicySpec names the policy a hot reload swaps the fleet to: the
// monitor.Policy that, together with the workload's metadata, determines
// the generation's seccomp filter and verdicts. Mode and the telemetry
// plane are launch decisions and stay fixed across reloads.
type PolicySpec struct {
	// Contexts is the enforced context mask; UseContexts distinguishes an
	// explicit, nonzero mask from the AllContexts default (mirroring
	// Config).
	Contexts    monitor.Context
	UseContexts bool

	ExtendFS   bool
	TreeFilter bool
	Offload    bool
}

// policy resolves the spec to the generation's monitor.Policy.
func (s *PolicySpec) policy() monitor.Policy {
	p := monitor.Policy{Contexts: monitor.AllContexts, ExtendFS: s.ExtendFS, TreeFilter: s.TreeFilter, Offload: s.Offload}
	if s.UseContexts {
		p.Contexts = s.Contexts
	}
	return p
}

// reloadGeneration resolves the fleet's reload generation (ID 1) for one
// workload through the artifact cache: compiled once per filter key from
// the workload's metadata and staged into every tenant running that
// workload.
func reloadGeneration(cfg *Config, app string, arts *Artifacts) (*monitor.Generation, error) {
	mcfg := cfg.monitorConfig()
	mcfg.Policy = cfg.ReloadSpec.policy()
	return arts.Generation(1, app, mcfg)
}
