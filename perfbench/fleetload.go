package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"bastion/internal/bench"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/fleet"
	"bastion/internal/fleet/shard"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// The fleet-offload load, sized for a 2-CPU machine: two shards with one
// worker each keep shards × workers ≤ nproc, and 20 units per tenant keep
// per-tenant launch and init a large share of each tenant's work.
const (
	fleetTenants  = 48
	fleetUnits    = 20
	fleetShards   = 2
	fleetWorkers  = 1 // per shard
	fleetReloadAt = fleetUnits / 2
)

var fleetApps = []string{"nginx", "sqlite", "vsftpd"}

// fleetAdmission is tight enough that tenants queue and some are rejected
// with retry-after before launch.
var fleetAdmission = shard.AdmissionConfig{
	Burst: 4, RefillCycles: 2_000_000, QueueDepth: 6, RetryCycles: 5_000_000, ArrivalSpacing: 100_000,
}

// fleetContexts is the offload-eligible policy: call type and argument
// integrity, answered in-filter where the filter can decide.
const fleetContexts = monitor.CallType | monitor.ArgIntegrity

// fleetConfig is the fleet-offload run: round-robin nginx/sqlite/vsftpd
// tenants, CT|AI with the file-system extension and in-filter offload,
// sharded dispatch under tight admission, and a mid-run hot reload to the
// tree-compiled filter generation.
func fleetConfig(seed int64) fleet.Config {
	cfg := fleet.DefaultConfig(fleetTenants, fleetUnits, fleetApps...)
	cfg.UseContexts = true
	cfg.Contexts = fleetContexts
	cfg.ExtendFS = true
	cfg.Offload = true
	cfg.Shards = fleetShards
	cfg.Workers = fleetWorkers
	adm := fleetAdmission
	cfg.Admission = &adm
	cfg.ReloadAt = fleetReloadAt
	cfg.ReloadSpec = &fleet.PolicySpec{
		UseContexts: true, Contexts: fleetContexts, ExtendFS: true, Offload: true, TreeFilter: true,
	}
	cfg.Seed = seed
	return cfg
}

// fleetGenerations are the monitor configurations of generation 0 (launch)
// and generation 1 (reload), as fleet.Run derives them from fleetConfig.
func fleetGenerations() (gen0, gen1 monitor.Config) {
	gen0 = monitor.DefaultConfig()
	gen0.Contexts = fleetContexts
	gen0.ExtendFS = true
	gen0.Offload = true
	gen1 = gen0
	gen1.TreeFilter = true
	return gen0, gen1
}

// fleetSetup is one cold fleet set-up: compile the three applications and
// build both generations through a fresh artifact cache. Traced runs set
// probe, which also launches and initializes one guest per application
// from those artifacts to time the launch and init spans a tenant pays;
// setup_s, printed by untraced runs only, never includes them.
func fleetSetup(probe bool) (*fleet.Artifacts, setupTimes, error) {
	var st setupTimes
	gen0, gen1 := fleetGenerations()
	arts := fleet.NewArtifacts()
	for _, app := range fleetApps {
		t0 := time.Now()
		art, err := arts.Compiled(app)
		if err != nil {
			return nil, st, err
		}
		t1 := time.Now()
		cfg, err := arts.Config(app, gen0)
		if err != nil {
			return nil, st, err
		}
		if _, err := arts.Generation(1, app, gen1); err != nil {
			return nil, st, err
		}
		t2 := time.Now()
		st.compile += t1.Sub(t0)
		st.filter += t2.Sub(t1)
		if !probe {
			continue
		}
		k, target, err := fixture(app)
		if err != nil {
			return nil, st, err
		}
		t3 := time.Now()
		prot, err := core.Launch(art, k, cfg, vm.WithMaxSteps(maxSteps))
		if err != nil {
			return nil, st, err
		}
		t4 := time.Now()
		if err := target.Init(prot); err != nil {
			return nil, st, fmt.Errorf("%s init: %w", app, err)
		}
		st.launch += t4.Sub(t3) / time.Duration(len(fleetApps))
		st.init += time.Since(t4) / time.Duration(len(fleetApps))
	}
	return arts, st, nil
}

// runFleet runs the fleet-offload workload and fills r.
func runFleet(o options, r *report) error {
	var arts *fleet.Artifacts
	setups, err := repeatSetups(o, func() (setupTimes, error) {
		var st setupTimes
		var err error
		arts, st, err = fleetSetup(o.trace)
		return st, err
	})
	if err != nil {
		return err
	}
	reportSetups(r, setups, o.ref)

	cfg := fleetConfig(o.seed)
	var (
		first   *fleet.Report
		batches []batch // one per fleet.Run
		units   int
	)
	rec := newRecorder(o.keepUnits)
	runtime.GC()
	h0 := readHost()
	deadline := h0.at.Add(o.seconds)
	for b := 0; ; b++ {
		traced := o.trace && b%2 == 1
		var id int32
		if traced {
			// The fleet's host layers stop at the fleet.Run span.
			id = rec.beginUnit(layerFleet, b)
		}
		start := time.Now()
		rep, err := fleet.Run(cfg)
		wall := time.Since(start)
		if traced {
			rec.endUnit(id)
		}
		r.attempted += cfg.Tenants * cfg.Units
		if err != nil {
			r.fail(cfg.Tenants*cfg.Units, "fleet.Run: %v", err)
			break
		}
		checkFleet(cfg, rep, r)
		if first == nil {
			first = rep
		} else if makespan(rep) != makespan(first) || rep.TotalUnits() != first.TotalUnits() {
			r.fail(1, "fleet run %d is not deterministic: makespan %d, first %d", b, makespan(rep), makespan(first))
		}
		units += rep.TotalUnits()
		batches = append(batches, batch{midpoint(start, wall), wall, rep.TotalUnits(), traced})
		o.ref.after(wall)
		if time.Now().After(deadline) && (!o.trace || b > 0) {
			break
		}
	}
	h1 := readHost()

	// Each run's time is scaled by the machine speed around it.
	var rates, raw [2][]float64 // per-run units/s: untraced, traced
	var unitUS, rawUS []float64
	for _, b := range batches {
		f, n := o.ref.at(b.mid), float64(b.units)
		ti := 0
		if b.traced {
			ti = 1
		} else {
			us := per(float64(b.d.Microseconds())*fleetShards*fleetWorkers, n)
			unitUS = append(unitUS, f*us)
			rawUS = append(rawUS, us)
		}
		rates[ti] = append(rates[ti], per(n, b.d.Seconds())/f)
		raw[ti] = append(raw[ti], per(n, b.d.Seconds()))
	}
	slices.Sort(unitUS)
	slices.Sort(rawUS)
	note := fmt.Sprintf("(median of %d fleet.Run rates, %d units each; raw %.4f)", len(rates[0]), cfg.Tenants*cfg.Units, median(raw[0]))
	r.set("units_per_s", median(rates[0]), note)
	unote := fmt.Sprintf("(over %d fleet.Run samples of worker-us per unit; raw %%.4f)", len(unitUS))
	r.set("unit_us_p50", quantile(unitUS, 0.50), fmt.Sprintf(unote, quantile(rawUS, 0.50)))
	r.set("unit_us_p90", quantile(unitUS, 0.90), fmt.Sprintf(unote, quantile(rawUS, 0.90)))
	reportRuntime(r, h0, h1, units)
	r.set("trace.overhead_pct", 100*(per(median(rates[0]), median(rates[1]))-1),
		fmt.Sprintf("(untraced vs traced median run rate, %d+%d runs)", len(rates[0]), len(rates[1])))
	for _, name := range []string{
		"vm.self_us_per_unit", "vm.ns_per_insn", "kernel.self_us_per_unit", "kernel.ns_per_syscall",
		"monitor.us_per_unit", "monitor.ns_per_trap", "shadow.us_per_unit", "shadow.ns_per_call",
	} {
		r.set(name, 0, notApplicable+": inside fleet.Run")
	}
	if first != nil {
		if err := reportFleetSim(r, first, arts); err != nil {
			return err
		}
	}
	if o.trace {
		return writeSpans(o, "fleet-offload", rec)
	}
	return nil
}

// makespan is the fleet's simulated makespan: the longest tenant timeline.
func makespan(rep *fleet.Report) uint64 {
	var m uint64
	for i := range rep.Results {
		m = max(m, rep.Results[i].ElapsedCycles())
	}
	return m
}

// checkFleet is the fleet's correctness gate: every tenant completes its
// units on generation 1 with no kill, fault, restart or violation.
func checkFleet(cfg fleet.Config, rep *fleet.Report, r *report) {
	for i := range rep.Results {
		t := &rep.Results[i]
		r.fail(cfg.Units-t.Units, "tenant %d (%s) completed %d of %d units", t.Index, t.App, t.Units, cfg.Units)
		r.fail(t.Kills+t.Faults+t.Restarts, "tenant %d (%s): %d kills, %d faults, %d restarts",
			t.Index, t.App, t.Kills, t.Faults, t.Restarts)
		r.fail(len(t.Violations), "tenant %d (%s): %d violations", t.Index, t.App, len(t.Violations))
		if t.Gen != 1 || t.Reloads != 1 || t.Dead {
			r.fail(1, "tenant %d (%s) finished on generation %d after %d reloads (dead %v)",
				t.Index, t.App, t.Gen, t.Reloads, t.Dead)
		}
	}
}

// reportFleetSim sets the fleet's exact simulated metrics from its report,
// with a vanilla pass of each application's units as the overhead base.
func reportFleetSim(r *report, rep *fleet.Report, arts *fleet.Artifacts) error {
	base := map[string]uint64{}
	for _, app := range fleetApps {
		inst, err := vanilla(app, arts)
		if err != nil {
			return err
		}
		r.attempted += fleetUnits
		wl, err := workload.Continue(inst.target, inst.prot, 0, fleetUnits)
		if err != nil {
			r.fail(fleetUnits-wl.Units, "%s vanilla pass: %v", app, err)
			continue
		}
		base[app] = wl.TotalCycles
	}

	var units, traps, monCycles, avoided, steady, vanillaCycles, reloads, reloadCycles, setup, init uint64
	for i := range rep.Results {
		t := &rep.Results[i]
		units += uint64(t.Units)
		traps += t.Traps
		monCycles += t.MonitorCycles
		avoided += t.OffloadAvoided
		steady += t.TotalCycles
		vanillaCycles += base[t.App]
		reloads += t.Reloads
		reloadCycles += t.ReloadCycles
		setup += t.SetupCycles
		init += t.InitCycles
	}
	var waits []uint64
	rejects := 0
	for _, s := range rep.Shards {
		for _, g := range s.Grants {
			waits = append(waits, g.Wait())
		}
		rejects += s.Rejects()
	}
	slices.Sort(waits)

	n, tenants := float64(units), float64(len(rep.Results))
	span := makespan(rep)
	note := fmt.Sprintf("(exact, %d tenants × %d units)", len(rep.Results), rep.Cfg.Units)
	r.set("sim_units_per_s", per(n, float64(span)/bench.SimHz), note+" units over makespan")
	r.set("sim_overhead_pct", 100*(per(float64(steady), float64(vanillaCycles))-1), note+" steady cycles vs vanilla passes")
	r.set("sim_makespan_mcycles", float64(span)/1e6, note+" longest tenant timeline")
	r.set("monitor.sim_traps_per_unit", per(float64(traps), n), note)
	r.set("monitor.sim_cycles_per_unit", per(float64(monCycles), n), note)
	r.set("seccomp.sim_offload_avoided_per_unit", per(float64(avoided), n), note)
	wnote := fmt.Sprintf("(exact, %d admission grants)", len(waits))
	r.set("shard.sim_admit_wait_cycles_p50", float64(quantile(waits, 0.50)), wnote)
	r.set("shard.sim_admit_wait_cycles_max", float64(quantile(waits, 1)), wnote)
	r.set("shard.sim_rejects", float64(rejects), wnote)
	r.set("fleet.sim_reload_cycles_mean", per(float64(reloadCycles), float64(reloads)), fmt.Sprintf("(exact, %d reloads)", reloads))
	r.set("fleet.sim_setup_cycles_per_tenant", per(float64(setup), tenants), note)
	r.set("fleet.sim_init_cycles_per_tenant", per(float64(init), tenants), note)
	r.set("fleet.compiles", float64(rep.Compiles), "(program compilations per fleet.Run)")
	for _, name := range []string{
		"vm.sim_insns_per_unit", "kernel.sim_syscalls_per_unit", "seccomp.sim_bpf_insns_per_syscall",
		"monitor.sim_fetch_cycles_per_unit", "monitor.sim_unwind_cycles_per_unit", "monitor.sim_ct_cycles_per_unit",
		"monitor.sim_cf_cycles_per_unit", "monitor.sim_ai_cycles_per_unit", "monitor.sim_sf_cycles_per_unit",
		"monitor.sim_trap_cycles_p50", "monitor.sim_trap_cycles_p99",
	} {
		r.set(name, 0, notApplicable+": not in fleet.Report")
	}
	return nil
}
