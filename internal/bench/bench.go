// Package bench implements the paper's evaluation harness (§9): it builds
// each application, applies a mitigation stack, drives the paper's
// workload, and converts measured cycle counts into the figures and tables
// of the evaluation section.
//
// # Measurement model
//
// The simulator executes one worker; the deployed applications run many
// (NGINX: 32 workers, SQLite/DBT2: 48, vsFTPd: serial clients). The
// monitor, as in the paper, is a single process that serializes trap
// handling for all workers. Aggregate throughput is therefore modeled as
//
//	rate = min( workers / perUnitCycles , 1 / perUnitMonitorCycles )
//
// with both per-unit terms measured, not assumed. This is what reconciles
// Figure 3 (sensitive syscalls: one cheap trap per unit, monitor far from
// saturation, <3% overhead) with Table 7 (file-system syscalls: a dozen
// state-fetching traps per unit saturate the monitor and collapse
// NGINX/SQLite throughput, while single-session vsFTPd barely notices).
//
// # Calibration
//
// Simulated time is cycle-denominated with SimHz cycles per second. Guest
// instruction costs, kernel syscall/ptrace costs, and monitor check costs
// are fixed in internal/vm, internal/kernel, and internal/core/monitor.
// The per-application knobs — I/O cost per byte (workload.IOPerByte) and
// per-unit think cycles — set the absolute work per request/transaction/transfer to
// server-realistic magnitudes (a 6.7 KB HTTP request ≈ 1.9 M cycles ≈
// 1.9 ms at SimHz). Shapes (who wins, context ordering, crossovers) are
// measurement; absolute percentages depend on these constants and are
// compared against the paper in EXPERIMENTS.md.
package bench

import (
	"math"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/fleet"
	"bastion/internal/kernel"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// SimHz converts simulated cycles to seconds (1 GHz).
const SimHz = 1e9

// Mitigation stacks, in the paper's presentation order: the columns of
// Figure 3 / Table 3.
var (
	MitVanilla = core.Defense{Name: "vanilla"}
	MitCFI     = core.Defense{Name: "LLVM CFI", CFI: true}
	MitCET     = core.Defense{Name: "CET", CET: true}
	MitCETCT   = core.Defense{Name: "CET+CT", CET: true, Monitor: core.Enforcing(monitor.CallType)}
	MitCETCTCF = core.Defense{Name: "CET+CT+CF", CET: true, Monitor: core.Enforcing(monitor.CallType | monitor.ControlFlow)}
	MitFull    = core.Defense{Name: "CET+CT+CF+AI+SF", CET: true, Monitor: core.Enforcing(monitor.AllContexts)}
)

// Mitigations lists the Figure 3 columns.
var Mitigations = []core.Defense{MitVanilla, MitCFI, MitCET, MitCETCT, MitCETCTCF, MitFull}

// mitSlug maps a mitigation stack onto the artifact's metric-name
// alphabet (lowercase, no spaces or '+').
func mitSlug(m core.Defense) string {
	switch m.Name {
	case MitVanilla.Name:
		return "vanilla"
	case MitCFI.Name:
		return "cfi"
	case MitCET.Name:
		return "cet"
	case MitCETCT.Name:
		return "cet_ct"
	case MitCETCTCF.Name:
		return "cet_ct_cf"
	case MitFull.Name:
		return "full"
	}
	return "unknown"
}

// sharedArtifacts deduplicates program, metadata, and seccomp-filter
// compilation across every bench run in the process: artifacts are
// immutable once compiled, so parallel report collection launches all its
// measurements from one compilation per (app, filter-config) instead of
// one per run.
var sharedArtifacts = fleet.NewArtifacts()

// RunSpec describes one measurement.
type RunSpec struct {
	App   string
	Units int
	// Mitigation is the defense the guest runs under: one of Mitigations,
	// or a copy with its Monitor or Coarse edited for an ablation.
	Mitigation core.Defense
	// ExtendFS and Mode select the Table 7 configurations. Run applies them
	// onto Mitigation.Monitor: ExtendFS when set, Mode when not ModeFull.
	ExtendFS bool
	Mode     monitor.Mode
	// Artifacts selects the shared compilation cache backing the run
	// (nil = the package-wide cache). Supply a fresh fleet.NewArtifacts()
	// to measure compilation dedup in isolation.
	Artifacts *fleet.Artifacts
}

// RunResult couples a workload measurement with its launch context.
type RunResult struct {
	Workload  workload.Result
	Target    workload.Target
	Protected *core.Protected
	// Stats is the compiler's instrumentation statistics (monitored runs).
	Stats *core.Artifact
}

// Run executes one measurement on a fresh kernel and machine, launching
// from the shared artifact cache (spec.Artifacts, or the package-wide one)
// so repeated runs of the same app never recompile. A monitored defense
// runs the instrumented program with its filter from the cache; any other
// runs the raw program.
func Run(spec RunSpec) (*RunResult, error) {
	arts := spec.Artifacts
	if arts == nil {
		arts = sharedArtifacts
	}
	d := spec.Mitigation
	d.Monitor.ExtendFS = d.Monitor.ExtendFS || spec.ExtendFS
	if spec.Mode != monitor.ModeFull {
		d.Monitor.Mode = spec.Mode
	}
	if !d.Monitored() {
		prog, err := arts.Raw(spec.App)
		if err != nil {
			return nil, err
		}
		return runOn(spec.App, spec.Units, &core.Artifact{Prog: prog}, d)
	}
	art, err := arts.Compiled(spec.App)
	if err != nil {
		return nil, err
	}
	if d.Monitor, err = arts.Config(spec.App, d.Monitor); err != nil {
		return nil, err
	}
	return runOn(spec.App, spec.Units, art, d)
}

// runOn drives units of app's workload on a fresh kernel, launching art
// under d.
func runOn(app string, units int, art *core.Artifact, d core.Defense) (*RunResult, error) {
	target, err := workload.NewTarget(app)
	if err != nil {
		return nil, err
	}
	k := kernel.New(nil)
	k.Costs.IOPerByte = workload.IOPerByte(app)
	if err := target.Fixture(k); err != nil {
		return nil, err
	}
	prot, err := d.Launch(art, k, vm.WithMaxSteps(1<<34))
	if err != nil {
		return nil, err
	}
	wl, err := workload.Run(target, prot, units)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Workload: wl, Target: target, Protected: prot}
	if d.Monitored() {
		res.Stats = art
	}
	return res, nil
}

// Throughput converts a measurement into aggregate units/second under the
// application's deployment concurrency (see the package comment's model).
func Throughput(r *RunResult) float64 {
	per := r.Workload.PerUnitTotal()
	if per == 0 {
		return 0
	}
	workers := float64(r.Target.Workers())
	rate := workers / per
	if mon := r.Workload.PerUnitMonitor(); mon > 0 {
		if cap := 1.0 / mon; cap < rate {
			rate = cap
		}
	}
	return rate * SimHz
}

// Overhead returns the percentage throughput loss of run vs base.
func Overhead(base, run *RunResult) float64 {
	tb, tr := Throughput(base), Throughput(run)
	if tb == 0 {
		return math.NaN()
	}
	return (1 - tr/tb) * 100
}
