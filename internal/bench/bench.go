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
	"fmt"
	"math"

	"bastion/internal/baseline/cet"
	"bastion/internal/baseline/llvmcfi"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/fleet"
	"bastion/internal/kernel"
	"bastion/internal/obs"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// SimHz converts simulated cycles to seconds (1 GHz).
const SimHz = 1e9

// Mitigation selects one column of Figure 3 / Table 3.
type Mitigation int

// Mitigation stacks, in the paper's presentation order.
const (
	MitVanilla Mitigation = iota
	MitCFI
	MitCET
	MitCETCT
	MitCETCTCF
	MitFull
)

// Mitigations lists the Figure 3 columns.
var Mitigations = []Mitigation{MitVanilla, MitCFI, MitCET, MitCETCT, MitCETCTCF, MitFull}

func (m Mitigation) String() string {
	switch m {
	case MitVanilla:
		return "vanilla"
	case MitCFI:
		return "LLVM CFI"
	case MitCET:
		return "CET"
	case MitCETCT:
		return "CET+CT"
	case MitCETCTCF:
		return "CET+CT+CF"
	case MitFull:
		return "CET+CT+CF+AI+SF"
	}
	return fmt.Sprintf("mitigation(%d)", int(m))
}

// mitSlug maps a mitigation stack onto the artifact's metric-name
// alphabet (lowercase, no spaces or '+').
func mitSlug(m Mitigation) string {
	switch m {
	case MitVanilla:
		return "vanilla"
	case MitCFI:
		return "cfi"
	case MitCET:
		return "cet"
	case MitCETCT:
		return "cet_ct"
	case MitCETCTCF:
		return "cet_ct_cf"
	case MitFull:
		return "full"
	}
	return "unknown"
}

// contexts returns the monitor contexts a mitigation enables (0 = no
// monitor).
func (m Mitigation) contexts() monitor.Context {
	switch m {
	case MitCETCT:
		return monitor.CallType
	case MitCETCTCF:
		return monitor.CallType | monitor.ControlFlow
	case MitFull:
		return monitor.AllContexts
	}
	return 0
}

// sharedArtifacts deduplicates program, metadata, and seccomp-filter
// compilation across every bench run in the process: artifacts are
// immutable once compiled, so parallel report collection launches all its
// measurements from one compilation per (app, filter-config) instead of
// one per run.
var sharedArtifacts = fleet.NewArtifacts()

// RunSpec describes one measurement.
type RunSpec struct {
	App        string
	Mitigation Mitigation
	Units      int
	// ExtendFS and Mode select the Table 7 configurations.
	ExtendFS bool
	Mode     monitor.Mode
	// DisableAcceptFastPath runs the §9.2 ablation.
	DisableAcceptFastPath bool
	// InKernel runs the monitor in-kernel (the §11.2 eBPF proposal).
	InKernel bool
	// TreeFilter selects the binary-search seccomp compilation (the
	// linear-vs-tree filter ablation).
	TreeFilter bool
	// CoarsePolicies enforces the pre-refinement AllowedIndirect sets
	// (the points-to refinement ablation) by launching on the
	// metadata.CoarseIndirect projection.
	CoarsePolicies bool
	// Offload answers in-filter-decidable verdicts inside the seccomp
	// program (the verdict-offload ablation).
	Offload bool
	// Contexts, when nonzero, overrides the mitigation's context mask — the
	// offload ablation needs call-type + argument-integrity without
	// control-flow, a combination no Mitigation level selects.
	Contexts monitor.Context
	// Artifacts selects the shared compilation cache backing the run
	// (nil = the package-wide cache). Supply a fresh fleet.NewArtifacts()
	// to measure compilation dedup in isolation.
	Artifacts *fleet.Artifacts
	// Sink attaches a decision-trace sink to the monitor and FlightN
	// sizes its flight recorder (the observability ablation: telemetry
	// must be cycle-invisible).
	Sink    obs.Sink
	FlightN int
}

// RunResult couples a workload measurement with its launch context.
type RunResult struct {
	Spec      RunSpec
	Workload  workload.Result
	Target    workload.Target
	Protected *core.Protected
	// Stats is the compiler's instrumentation statistics (monitored runs).
	Stats *core.Artifact
}

// Run executes one measurement on a fresh kernel and machine, launching
// from the shared artifact cache (spec.Artifacts, or the package-wide one)
// so repeated runs of the same app never recompile.
func Run(spec RunSpec) (*RunResult, error) {
	arts := spec.Artifacts
	if arts == nil {
		arts = sharedArtifacts
	}
	target, err := workload.NewTarget(spec.App)
	if err != nil {
		return nil, err
	}

	k := kernel.New(nil)
	k.Costs.IOPerByte = workload.IOPerByte(spec.App)
	if err := target.Fixture(k); err != nil {
		return nil, err
	}

	var vmOpts []vm.Option
	vmOpts = append(vmOpts, vm.WithMaxSteps(1<<34))
	switch spec.Mitigation {
	case MitCFI:
		prog, err := arts.Raw(spec.App)
		if err != nil {
			return nil, err
		}
		vmOpts = append(vmOpts, vm.WithMitigations(llvmcfi.New(prog)))
	case MitCET, MitCETCT, MitCETCTCF, MitFull:
		vmOpts = append(vmOpts, vm.WithMitigations(cet.New()))
	}

	res := &RunResult{Spec: spec, Target: target}
	ctx := spec.Mitigation.contexts()
	if spec.Contexts != 0 {
		ctx = spec.Contexts
	}
	if ctx != 0 {
		art, err := arts.Compiled(spec.App)
		if err != nil {
			return nil, err
		}
		cfg := monitor.DefaultConfig()
		cfg.Policy = monitor.Policy{Contexts: ctx, ExtendFS: spec.ExtendFS, TreeFilter: spec.TreeFilter, Offload: spec.Offload}
		cfg.Mode = spec.Mode
		cfg.AcceptFastPath = !spec.DisableAcceptFastPath
		cfg.InKernel = spec.InKernel
		cfg, err = arts.Config(spec.App, cfg)
		if err != nil {
			return nil, err
		}
		// Telemetry rides on the resolved per-run copy: it never enters the
		// shared artifact cache key.
		cfg.Sink = spec.Sink
		cfg.FlightN = spec.FlightN
		launched := art
		if spec.CoarsePolicies {
			coarse := *art
			coarse.Meta = art.Meta.CoarseIndirect()
			launched = &coarse
		}
		prot, err := core.Launch(launched, k, cfg, vmOpts...)
		if err != nil {
			return nil, err
		}
		res.Protected = prot
		res.Stats = art
	} else {
		prog, err := arts.Raw(spec.App)
		if err != nil {
			return nil, err
		}
		prot, err := core.LaunchUnprotected(&core.Artifact{Prog: prog}, k, vmOpts...)
		if err != nil {
			return nil, err
		}
		res.Protected = prot
	}

	wl, err := workload.Run(target, res.Protected, spec.Units)
	if err != nil {
		return nil, err
	}
	res.Workload = wl
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
