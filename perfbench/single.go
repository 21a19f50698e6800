package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"bastion/internal/baseline/cet"
	"bastion/internal/bench"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/fleet"
	"bastion/internal/kernel"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// singleSpec fixes one single-application workload: one closed-loop
// client driving one protected guest from one goroutine.
type singleSpec struct {
	name     string
	app      string
	extendFS bool
	// simUnits is the fixed window, right after Init, over which the
	// simulated metrics are taken; it is also the host warm-up.
	simUnits int
	// batch is the number of units per host-rate sample.
	batch int
	// epoch, when set, relaunches the guest after this many units since
	// its launch (a multiple of batch).
	epoch int
}

var singleSpecs = map[string]singleSpec{
	// nginx-fs: wrk-like static page under CT|CF|AI|SF plus the
	// file-system extension, offload off — 15 traps per request.
	"nginx-fs": {name: "nginx-fs", app: "nginx", extendFS: true, simUnits: 200, batch: 50},
	// sqlite-txn: DBT2 new-order under the Table-1 set only — about one
	// trap every two transactions. The guest's journal grows by every
	// transaction and the simulated file system copies the whole file on
	// each append, so a guest's per-transaction host cost rises with its
	// age; relaunching every 5 orderBlocks makes each run replay the same
	// growth instead of reaching a length that depends on machine speed.
	"sqlite-txn": {name: "sqlite-txn", app: "sqlite", simUnits: orderBlock, batch: 200, epoch: 5 * orderBlock},
}

// maxSteps is the guest step limit bench.Run launches with.
const maxSteps = 1 << 34

// monitorConfig is the full-enforcement configuration bench.Run builds for
// MitFull: every context, full mode, accept fast path, no offload.
func (s singleSpec) monitorConfig() monitor.Config {
	cfg := monitor.DefaultConfig()
	cfg.ExtendFS = s.extendFS
	return cfg
}

// orderBlock is the period of the SQLite driver's unit-index use (order
// id i%500, item count i%10, terminal i%8), so every block of this many
// consecutive indices covers each combination exactly once.
const orderBlock = 1000

// unitOrder maps the u-th unit of a pass to the index handed to
// Target.Unit: each block of orderBlock units is a seed-drawn permutation
// of that block's indices (identity when rng is nil). Units are asked for
// in order; only the current block is kept.
type unitOrder struct {
	rng   *rand.Rand
	base  int
	block []int
}

func newUnitOrder(seed int64) *unitOrder {
	return &unitOrder{rng: rand.New(rand.NewSource(seed))}
}

func (o *unitOrder) at(u int) int {
	for o.block == nil || u >= o.base+orderBlock {
		if o.block != nil {
			o.base += orderBlock
		}
		if o.rng != nil {
			o.block = o.rng.Perm(orderBlock)
			continue
		}
		o.block = make([]int, orderBlock)
		for i := range o.block {
			o.block[i] = i
		}
	}
	return o.base + o.block[u-o.base]
}

// permuted hands the wrapped target the order's unit indices.
type permuted struct {
	workload.Target
	order *unitOrder
}

func (p *permuted) Unit(prot *core.Protected, u int) (int64, error) {
	return p.Target.Unit(prot, p.order.at(u))
}

// setupTimes is one cold set-up, stage by stage.
type setupTimes struct {
	compile, filter, fixture, launch, init time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.compile + s.filter + s.fixture + s.launch + s.init
}

// scaled multiplies every stage by f.
func (s setupTimes) scaled(f float64) setupTimes {
	x := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	return setupTimes{x(s.compile), x(s.filter), x(s.fixture), x(s.launch), x(s.init)}
}

// instance is one launched, initialized guest.
type instance struct {
	target workload.Target
	prot   *core.Protected
}

// coldSetup compiles the application through a fresh artifact cache,
// builds its filter, and launches one guest, timing each stage.
func coldSetup(s singleSpec) (*instance, *fleet.Artifacts, setupTimes, error) {
	t0 := time.Now()
	arts := fleet.NewArtifacts()
	if _, err := arts.Compiled(s.app); err != nil {
		return nil, nil, setupTimes{}, err
	}
	t1 := time.Now()
	if _, err := arts.Config(s.app, s.monitorConfig()); err != nil {
		return nil, nil, setupTimes{}, err
	}
	t2 := time.Now()
	inst, st, err := launch(s, arts, 0)
	st.compile, st.filter = t1.Sub(t0), t2.Sub(t1)
	return inst, arts, st, err
}

// launch starts one guest from arts: it prepares the kernel fixture
// (charging bpfExtra more cycles per BPF instruction), launches the guest
// under CET and the monitor, and runs Target.Init, timing each stage.
func launch(s singleSpec, arts *fleet.Artifacts, bpfExtra uint64) (*instance, setupTimes, error) {
	var st setupTimes
	art, err := arts.Compiled(s.app)
	if err != nil {
		return nil, st, err
	}
	cfg, err := arts.Config(s.app, s.monitorConfig())
	if err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	k, target, err := fixture(s.app)
	if err != nil {
		return nil, st, err
	}
	k.Costs.BPFInsn += bpfExtra
	t1 := time.Now()
	prot, err := core.Launch(art, k, cfg, vm.WithMaxSteps(maxSteps), vm.WithMitigations(cet.New()))
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	if err := target.Init(prot); err != nil {
		return nil, st, fmt.Errorf("%s init: %w", s.app, err)
	}
	st.fixture, st.launch, st.init = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return &instance{target: target, prot: prot}, st, nil
}

// fixture makes a fresh kernel with the application's I/O cost model and
// its driver's fixture installed.
func fixture(app string) (*kernel.Kernel, workload.Target, error) {
	target, err := workload.NewTarget(app)
	if err != nil {
		return nil, nil, err
	}
	k := kernel.New(nil)
	k.Costs.IOPerByte = workload.IOPerByte(app)
	if err := target.Fixture(k); err != nil {
		return nil, nil, err
	}
	return k, target, nil
}

// vanilla launches the uninstrumented program with no monitor and no
// mitigation — bench.Run's MitVanilla — and runs Target.Init.
func vanilla(app string, arts *fleet.Artifacts) (*instance, error) {
	prog, err := arts.Raw(app)
	if err != nil {
		return nil, err
	}
	k, target, err := fixture(app)
	if err != nil {
		return nil, err
	}
	prot, err := core.LaunchUnprotected(&core.Artifact{Prog: prog}, k, vm.WithMaxSteps(maxSteps))
	if err != nil {
		return nil, err
	}
	if err := target.Init(prot); err != nil {
		return nil, fmt.Errorf("%s vanilla init: %w", app, err)
	}
	return &instance{target: target, prot: prot}, nil
}

// stageCounters are the monitor's per-stage cycle counters; cache_lookup
// stays zero without a verdict cache but belongs to the sum.
var stageCounters = []string{
	"monitor_cycles_fetch_total", "monitor_cycles_unwind_total", "monitor_cycles_cache_lookup_total",
	"monitor_cycles_ct_total", "monitor_cycles_cf_total", "monitor_cycles_ai_total", "monitor_cycles_sf_total",
}

// simCounters is a snapshot of a protected process's exact counters.
type simCounters struct {
	steps, syscalls, filterSteps, logAllows, traps, monitorCycles uint64
	stages                                                        []uint64
}

func readSim(p *core.Protected) simCounters {
	c := simCounters{
		steps:         p.Machine.Steps,
		filterSteps:   p.Proc.FilterSteps,
		traps:         p.Proc.TrapCount,
		monitorCycles: p.Proc.MonitorCycles,
	}
	for _, n := range p.Proc.SyscallCounts {
		c.syscalls += n
	}
	for _, n := range p.Proc.LogVerdicts {
		c.logAllows += n
	}
	for _, name := range stageCounters {
		c.stages = append(c.stages, p.Monitor.Metrics.Counter(name).Value())
	}
	return c
}

func (c simCounters) minus(b simCounters) simCounters {
	d := simCounters{
		steps: c.steps - b.steps, syscalls: c.syscalls - b.syscalls,
		filterSteps: c.filterSteps - b.filterSteps, logAllows: c.logAllows - b.logAllows,
		traps: c.traps - b.traps, monitorCycles: c.monitorCycles - b.monitorCycles,
	}
	for i := range c.stages {
		d.stages = append(d.stages, c.stages[i]-b.stages[i])
	}
	return d
}

func (c simCounters) stageSum() uint64 {
	var s uint64
	for _, v := range c.stages {
		s += v
	}
	return s
}

// simWindow is the exact measurement of the fixed unit window.
type simWindow struct {
	run, base  workload.Result // protected and vanilla passes
	counters   simCounters     // protected-pass deltas
	trapCycles []uint64        // per-trap cycles of the protected pass
}

// runWindow runs units [0, n) of order on inst, as workload.Run's steady
// phase does after Init.
func runWindow(inst *instance, order *unitOrder, n int) (workload.Result, error) {
	return workload.Continue(&permuted{inst.target, order}, inst.prot, 0, n)
}

// measureWindow is runWindow on a protected guest, with the deltas of
// its exact counters.
func measureWindow(inst *instance, order *unitOrder, n int) (workload.Result, simCounters, error) {
	before := readSim(inst.prot)
	wl, err := runWindow(inst, order, n)
	return wl, readSim(inst.prot).minus(before), err
}

// throughput applies bench.Throughput's deployment model to a window.
func throughput(inst *instance, wl workload.Result) float64 {
	return bench.Throughput(&bench.RunResult{Workload: wl, Target: inst.target})
}

// overhead is bench.Overhead over a window and its vanilla pass.
func overhead(inst *instance, base, run workload.Result) float64 {
	return bench.Overhead(&bench.RunResult{Workload: base, Target: inst.target},
		&bench.RunResult{Workload: run, Target: inst.target})
}

// runSingle runs one single-application workload and fills r.
func runSingle(s singleSpec, o options, r *report) error {
	// Repeated cold set-ups: the median is setup_s; the last instance
	// serves the rest of the run.
	var (
		inst *instance
		arts *fleet.Artifacts
	)
	setups, err := repeatSetups(o, func() (setupTimes, error) {
		var st setupTimes
		var err error
		inst, arts, st, err = coldSetup(s)
		return st, err
	})
	if err != nil {
		return err
	}
	reportSetups(r, setups, o.ref)

	// The simulated window doubles as the host warm-up. A cycles-only
	// tracer wrapper records each trap's simulated cycles.
	order := newUnitOrder(o.seed)
	var win simWindow
	mon := inst.prot.Monitor
	traps := &trapCycles{inner: mon}
	inst.prot.Proc.SetTracer(traps)
	win.run, win.counters, err = measureWindow(inst, order, s.simUnits)
	inst.prot.Proc.SetTracer(mon)
	win.trapCycles = traps.cycles
	r.attempted += s.simUnits
	if err != nil {
		r.fail(s.simUnits-win.run.Units, "sim window: %v", err)
		return nil
	}
	if err := verifyWindow(s, o.seed, arts, &win, r); err != nil {
		return err
	}
	reportSim(r, inst, &win)

	rec := newRecorder(o.keepUnits)
	checkInstance(timed(s, o, inst, arts, order, rec, r), r)
	if o.trace {
		return writeSpans(o, s.name, rec)
	}
	return nil
}

// verifyWindow replays the window on two fresh launches: a vanilla pass
// for the overhead baseline, and a protected pass whose kernel charges one
// more cycle per BPF instruction. The second must differ from the first
// by exactly the window's FilterSteps cycles, which proves filter cycles
// equal FilterSteps × Costs.BPFInsn.
func verifyWindow(s singleSpec, seed int64, arts *fleet.Artifacts, win *simWindow, r *report) error {
	base, err := vanilla(s.app, arts)
	if err != nil {
		return err
	}
	r.attempted += s.simUnits
	win.base, err = runWindow(base, newUnitOrder(seed), s.simUnits)
	if err != nil {
		r.fail(s.simUnits-win.base.Units, "vanilla window: %v", err)
	}

	plus, _, err := launch(s, arts, 1)
	if err != nil {
		return err
	}
	r.attempted += s.simUnits
	wl, c, err := measureWindow(plus, newUnitOrder(seed), s.simUnits)
	if err != nil {
		r.fail(s.simUnits-wl.Units, "BPF-cost window: %v", err)
		return nil
	}
	if c.filterSteps != win.counters.filterSteps || wl.TotalCycles-win.run.TotalCycles != c.filterSteps {
		r.fail(1, "filter cycles: +1 cycle/BPF insn moved the window by %d cycles, FilterSteps %d (was %d)",
			wl.TotalCycles-win.run.TotalCycles, c.filterSteps, win.counters.filterSteps)
	}
	return nil
}

// setupRun is one cold set-up and the midpoint of its run.
type setupRun struct {
	setupTimes
	mid time.Time
}

// repeatSetups runs cold set-ups, each after a forced GC and followed by
// reference rounds, until it has at least o.setups of them and
// o.setupBudget has passed, up to maxSetups. A first set-up pays the
// process's one-time costs (page faults, heap growth) and is not counted.
func repeatSetups(o options, setup func() (setupTimes, error)) ([]setupRun, error) {
	if _, err := setup(); err != nil {
		return nil, err
	}
	var out []setupRun
	start := time.Now()
	for len(out) < o.setups || (len(out) < maxSetups && time.Since(start) < o.setupBudget) {
		runtime.GC()
		t := time.Now()
		st, err := setup()
		if err != nil {
			return nil, err
		}
		d := time.Since(t)
		o.ref.after(d)
		out = append(out, setupRun{st, midpoint(t, d)})
	}
	return out, nil
}

// reportSetups sets setup_s and the set-up layer spans: medians over the
// set-ups, each scaled to nominal machine speed.
func reportSetups(r *report, runs []setupRun, ref *refClock) {
	setups := make([]setupTimes, len(runs))
	raw := make([]time.Duration, len(runs))
	for i, s := range runs {
		setups[i] = s.scaled(ref.at(s.mid))
		raw[i] = s.total()
	}
	pick := func(f func(setupTimes) time.Duration) time.Duration {
		xs := make([]time.Duration, len(setups))
		for i, s := range setups {
			xs[i] = f(s)
		}
		return median(xs)
	}
	note := fmt.Sprintf("(median of %d cold set-ups)", len(setups))
	r.set("setup_s", pick(setupTimes.total).Seconds(), fmt.Sprintf("(median of %d cold set-ups; raw %.4f)", len(setups), median(raw).Seconds()))
	r.set("analysis.compile_ms", ms(pick(func(s setupTimes) time.Duration { return s.compile })), note)
	r.set("seccomp.filter_build_ms", ms(pick(func(s setupTimes) time.Duration { return s.filter })), note)
	r.set("core.launch_ms", ms(pick(func(s setupTimes) time.Duration { return s.launch })), note)
	r.set("workload.init_ms", ms(pick(func(s setupTimes) time.Duration { return s.init })), note)
}

// reportSim sets the exact simulated metrics of the window.
func reportSim(r *report, inst *instance, win *simWindow) {
	n := float64(win.run.Units)
	c := win.counters
	note := fmt.Sprintf("(exact, %d-unit window)", win.run.Units)
	r.set("sim_units_per_s", throughput(inst, win.run), note+" bench.Throughput model")
	r.set("sim_overhead_pct", overhead(inst, win.base, win.run), note+" bench.Overhead vs vanilla")
	r.set("sim_makespan_mcycles", float64(win.run.TotalCycles)/1e6, note+" simulated time of the window")

	r.set("vm.sim_insns_per_unit", per(float64(c.steps), n), note)
	r.set("kernel.sim_syscalls_per_unit", per(float64(c.syscalls), n), note)
	r.set("seccomp.sim_bpf_insns_per_syscall", per(float64(c.filterSteps), float64(c.syscalls)), note)
	r.set("seccomp.sim_offload_avoided_per_unit", per(float64(c.logAllows), n), note)
	r.set("monitor.sim_traps_per_unit", per(float64(c.traps), n), note)
	r.set("monitor.sim_cycles_per_unit", per(float64(c.monitorCycles), n), note)
	for i, name := range stageCounters {
		if stage := strings.TrimSuffix(strings.TrimPrefix(name, "monitor_cycles_"), "_total"); stage != "cache_lookup" {
			r.set("monitor.sim_"+stage+"_cycles_per_unit", per(float64(c.stages[i]), n), note)
		}
	}
	if c.stageSum() != c.monitorCycles {
		r.fail(1, "monitor stage counters sum to %d cycles over the window, Proc.MonitorCycles moved %d",
			c.stageSum(), c.monitorCycles)
	}
	if win.run.MonitorCycles != c.monitorCycles {
		r.fail(1, "workload monitor cycles %d != process monitor cycles %d", win.run.MonitorCycles, c.monitorCycles)
	}
	trap := win.trapCycles
	slices.Sort(trap)
	tnote := fmt.Sprintf("(exact, %d traps)", len(trap))
	r.set("monitor.sim_trap_cycles_p50", float64(quantile(trap, 0.50)), tnote)
	r.set("monitor.sim_trap_cycles_p99", float64(quantile(trap, 0.99)), tnote)
	for _, name := range []string{
		"shard.sim_admit_wait_cycles_p50", "shard.sim_admit_wait_cycles_max", "shard.sim_rejects",
		"fleet.sim_reload_cycles_mean", "fleet.sim_setup_cycles_per_tenant", "fleet.sim_init_cycles_per_tenant",
		"fleet.compiles",
	} {
		r.set(name, 0, notApplicable)
	}
}

// checkInstance is the end-of-run correctness gate on benign traffic:
// no violation, no kill, and the stage counters still sum exactly to the
// process's monitor cycles since attach.
func checkInstance(inst *instance, r *report) {
	mon := inst.prot.Monitor
	r.fail(len(mon.Violations), "%d monitor violations on benign traffic", len(mon.Violations))
	if inst.prot.Proc.Killed() {
		r.fail(1, "guest was killed")
	}
	if c := readSim(inst.prot); c.stageSum() != c.monitorCycles {
		r.fail(1, "monitor stage counters sum to %d cycles since attach, Proc.MonitorCycles is %d",
			c.stageSum(), c.monitorCycles)
	}
}
