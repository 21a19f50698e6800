package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"bastion/internal/attacks"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/fleet/shard"
	"bastion/internal/kernel"
	"bastion/internal/obs"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// SimHz converts simulated cycles to seconds (1 GHz), matching the bench
// calibration.
const SimHz = 1e9

// Restart backoff, in simulated cycles: 1 ms base, doubling per
// consecutive failure, capped at 64 ms.
const (
	BackoffBase uint64 = 1_000_000
	BackoffCap  uint64 = 64_000_000
)

// maxSteps bounds each incarnation's guest execution.
const maxSteps uint64 = 1 << 34

// backoff is the restart penalty charged before the n-th restart (n ≥ 1):
// BackoffBase doubled per earlier consecutive failure, capped at
// BackoffCap.
func backoff(n int) uint64 {
	return min(BackoffBase<<min(n-1, 30), BackoffCap)
}

// Config describes one fleet run.
type Config struct {
	// Tenants is the number of protected guest instances.
	Tenants int
	// Apps assigns workloads round-robin by tenant index; len ≥ 1.
	Apps []string
	// Units is the per-tenant work-unit count.
	Units int

	// Policy is the launch policy (generation 0) every tenant's monitor
	// enforces. Its Contexts defaults to monitor.AllContexts when
	// UseContexts is false; set UseContexts to enforce an explicit,
	// nonzero mask.
	monitor.Policy
	UseContexts bool
	// Mode selects the monitor mode every tenant runs under; a hot reload
	// keeps it.
	Mode monitor.Mode

	// ShareArtifacts compiles each workload's program, metadata, and
	// monitor generations once and shares them across tenants. When false,
	// every incarnation compiles privately (the ablation baseline).
	ShareArtifacts bool

	// MaxRestarts caps restarts per tenant; a failure beyond the cap
	// leaves the tenant dead with its partial progress recorded. Each
	// restart charges the capped exponential backoff (BackoffBase up to
	// BackoffCap).
	MaxRestarts int

	// Seed fixes the tenant-interleaving schedule; Deterministic runs
	// tenants serially in that schedule order, making a fleet run fully
	// reproducible. Concurrent runs dispatch in the same schedule order
	// across Workers goroutines (0 = NumCPU, capped at Tenants); results
	// are identical either way because tenants share no mutable state.
	Seed          int64
	Deterministic bool
	Workers       int

	// Malicious maps tenant index → attack scenario ID to replay against
	// that tenant mid-run (after half its first incarnation's units). The
	// scenario's app must match the tenant's workload.
	Malicious map[int]string
	// FaultAt maps tenant index → global unit index at which to inject a
	// one-shot unit failure (restart-path testing).
	FaultAt map[int]int

	// Shards is the control plane's shard-supervisor count: tenants are
	// placed onto the shards by consistent hashing, each shard owns its
	// own goroutine pool and admission control, and per-shard statistics
	// land in the report. 0 runs the whole fleet as one shard with
	// admission off.
	Shards int
	// Admission overrides the per-shard admission control (nil =
	// shard.DefaultAdmission); it needs Shards > 0. Admission latency and
	// rejections are charged to each tenant's elapsed timeline
	// deterministically.
	Admission *shard.AdmissionConfig

	// ReloadAt > 0 hot-reloads every tenant's policy after it completes
	// that many units: a new artifact generation (ReloadSpec) is staged
	// into the live monitor and applies at the next trap boundary, with
	// zero guest downtime. Requires ReloadSpec; must be < Units.
	ReloadAt int
	// ReloadSpec is the policy the fleet swaps to (generation 1).
	ReloadSpec *PolicySpec

	// Trace enables the telemetry plane: every incarnation's monitor gets
	// a per-tenant buffer sink, and each tenant's decision trace and
	// merged metrics registry land in its TenantResult. FlightN sizes the
	// per-monitor flight recorder (0 = off); a tenant whose incarnation
	// crashes or records a violation keeps that recorder's dump.
	Trace   bool
	FlightN int

	// SLO declares per-shard service budgets, evaluated into the
	// report's SLO section after the run. Non-nil SLO implies Trace —
	// the evaluator reads merged trap-cycle histograms and per-tenant
	// decision traces. Evaluation is read-only: tenant scheduling and
	// verdicts are byte-identical with and without it.
	SLO *SLOConfig
}

// Validate rejects nonsensical configurations.
func (c *Config) Validate() error {
	if c.Tenants <= 0 {
		return fmt.Errorf("fleet: tenants must be positive, got %d", c.Tenants)
	}
	if c.Units <= 0 {
		return fmt.Errorf("fleet: units must be positive, got %d", c.Units)
	}
	if len(c.Apps) == 0 {
		return errors.New("fleet: at least one app required")
	}
	for _, app := range c.Apps {
		if _, err := workload.NewTarget(app); err != nil {
			return err
		}
	}
	if c.MaxRestarts < 0 {
		return fmt.Errorf("fleet: max restarts must be non-negative, got %d", c.MaxRestarts)
	}
	if c.Workers < 0 {
		return fmt.Errorf("fleet: workers must be non-negative, got %d", c.Workers)
	}
	for idx, unit := range c.FaultAt {
		if idx < 0 || idx >= c.Tenants {
			return fmt.Errorf("fleet: fault tenant %d outside fleet of %d", idx, c.Tenants)
		}
		if unit < 0 {
			return fmt.Errorf("fleet: fault unit must be non-negative, got %d for tenant %d", unit, idx)
		}
	}
	if c.Shards < 0 {
		return fmt.Errorf("fleet: shards must be non-negative, got %d", c.Shards)
	}
	if c.Admission != nil && c.Shards == 0 {
		return errors.New("fleet: admission control needs shards > 0")
	}
	// A zero mask would launch tenants the report counts as protected with
	// no monitor attached (core.Defense), or swap to a policy checking
	// nothing.
	if c.UseContexts && c.Contexts == 0 {
		return errors.New("fleet: an explicit context mask must enable at least one context")
	}
	if c.ReloadSpec != nil && c.ReloadSpec.UseContexts && c.ReloadSpec.Contexts == 0 {
		return errors.New("fleet: an explicit reload context mask must enable at least one context")
	}
	if c.ReloadAt < 0 {
		return fmt.Errorf("fleet: reload unit must be non-negative, got %d", c.ReloadAt)
	}
	if c.ReloadAt > 0 {
		if c.ReloadSpec == nil {
			return errors.New("fleet: reload-at needs a reload policy spec")
		}
		if c.ReloadAt >= c.Units {
			return fmt.Errorf("fleet: reload at unit %d needs more than %d units", c.ReloadAt, c.Units)
		}
	}
	if c.SLO != nil {
		if err := c.SLO.Validate(); err != nil {
			return err
		}
	}
	for idx, id := range c.Malicious {
		if idx < 0 || idx >= c.Tenants {
			return fmt.Errorf("fleet: malicious tenant %d outside fleet of %d", idx, c.Tenants)
		}
		s, ok := attacks.ByID(id)
		if !ok {
			return fmt.Errorf("fleet: unknown attack scenario %q", id)
		}
		if s.App != c.appOf(idx) {
			return fmt.Errorf("fleet: attack %q targets %s but tenant %d runs %s",
				id, s.App, idx, c.appOf(idx))
		}
	}
	return nil
}

// DefaultConfig returns a full-protection fleet configuration: all
// contexts, full mode, shared artifacts, three restarts.
func DefaultConfig(tenants, units int, apps ...string) Config {
	if len(apps) == 0 {
		apps = workload.Apps
	}
	return Config{
		Tenants:        tenants,
		Apps:           apps,
		Units:          units,
		ShareArtifacts: true,
		MaxRestarts:    3,
	}
}

func (c *Config) appOf(idx int) string { return c.Apps[idx%len(c.Apps)] }

// policy is the launch policy with the context default resolved.
func (c *Config) policy() monitor.Policy {
	p := c.Policy
	if !c.UseContexts {
		p.Contexts = monitor.AllContexts
	}
	return p
}

// monitorConfig is the monitor configuration every tenant launches under
// (generation 0); the reload generation swaps its ReloadSpec policy in.
func (c *Config) monitorConfig() monitor.Config {
	mcfg := monitor.DefaultConfig()
	mcfg.Policy = c.policy()
	mcfg.Mode = c.Mode
	return mcfg
}

// AttackOutcome records what the injected attack achieved on a malicious
// tenant.
type AttackOutcome struct {
	ID        string
	Completed bool // the attack reached its kernel-event goal
	Killed    bool // the defense terminated the guest
	KilledBy  string
	Reason    string
}

// TenantResult summarizes one tenant across all its incarnations.
type TenantResult struct {
	Index int
	App   string

	// Shard is the control-plane shard that ran the tenant. AdmitCycles
	// is the fleet-clock cycle at which the shard granted the tenant's
	// launch (arrival offset plus queueing); it front-pads the tenant's
	// elapsed timeline so WallCycles is a true makespan. AdmitRejects
	// counts full-queue rejections absorbed before admission.
	Shard        int
	AdmitCycles  uint64
	AdmitRejects int

	// Units is the number of work units completed; Bytes the application
	// bytes moved.
	Units int
	Bytes int64

	// Restarts counts incarnations beyond the first; Kills security
	// terminations (seccomp or monitor); Faults non-security failures.
	Restarts int
	Kills    int
	Faults   int
	// KilledBy is the last security-kill source ("seccomp", "monitor").
	KilledBy string
	// Dead marks a tenant whose restart budget was exhausted (or that was
	// quarantined after a completed attack); its counters hold partial
	// progress.
	Dead bool

	// Cycle accounts, summed across incarnations. SetupCycles is monitor
	// attach cost; InitCycles application init; TotalCycles steady state
	// (monitor share in MonitorCycles); BackoffCycles restart penalties.
	SetupCycles   uint64
	InitCycles    uint64
	TotalCycles   uint64
	MonitorCycles uint64
	BackoffCycles uint64
	Traps         uint64

	// FlowChecks counts syscall-flow transition checks, summed across
	// incarnations. Each incarnation starts a fresh monitor, so its flow
	// state (and first-trap requirement) resets with the restart.
	FlowChecks uint64

	// OffloadAvoided counts traps the in-filter verdict offload answered
	// without stopping the guest, summed across incarnations.
	OffloadAvoided uint64

	// Reloads counts applied policy hot reloads across incarnations,
	// ReloadCycles their summed swap cost, and Gen the artifact generation
	// the tenant's last incarnation finished under.
	Reloads      uint64
	ReloadCycles uint64
	Gen          uint64

	// Violations are the monitor's recorded context violations, in order;
	// ContextViolations counts them per context (nil while there are none).
	Violations        []string
	ContextViolations map[monitor.Context]int

	// Attack is non-nil for a malicious tenant; Compromised marks an
	// attack that completed its goal.
	Attack      *AttackOutcome
	Compromised bool

	// Events is the tenant's decision trace across incarnations (Trace
	// on), re-sequenced 0..n-1 tenant-wide; each incarnation's cycle
	// stamps restart at its fresh clock. Metrics merges the
	// per-incarnation monitor registries.
	Events  []obs.TrapEvent
	Metrics *obs.Registry
	// Flight is the flight-recorder dump (JSONL, oldest trap first) of
	// the most recent incarnation that crashed or recorded a violation;
	// empty when FlightN is 0 or no incarnation qualified.
	Flight string
}

// PerUnitTotal returns steady-state cycles per completed unit.
func (t *TenantResult) PerUnitTotal() float64 {
	if t.Units == 0 {
		return 0
	}
	return float64(t.TotalCycles) / float64(t.Units)
}

// PerUnitMonitor returns monitor cycles per completed unit.
func (t *TenantResult) PerUnitMonitor() float64 {
	if t.Units == 0 {
		return 0
	}
	return float64(t.MonitorCycles) / float64(t.Units)
}

// ElapsedCycles is the tenant's full simulated timeline: admission +
// setup + init + steady state + restart backoff.
func (t *TenantResult) ElapsedCycles() uint64 {
	return t.AdmitCycles + t.SetupCycles + t.InitCycles + t.TotalCycles + t.BackoffCycles
}

// Run executes a fleet per the configuration and aggregates the report.
// Configuration and compilation errors abort the run; tenant runtime
// failures (kills, faults, exhausted restart budgets) are data in the
// report, never errors.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SLO != nil {
		// SLO evaluation reads merged histograms and decision traces.
		cfg.Trace = true
	}
	shared := NewArtifacts()
	schedule := rand.New(rand.NewSource(cfg.Seed)).Perm(cfg.Tenants)

	rep := &Report{
		Cfg:      cfg,
		Schedule: schedule,
		Results:  make([]TenantResult, cfg.Tenants),
	}
	var (
		mu       sync.Mutex
		firstErr error
		privN    int // compilations performed outside the shared cache
		privF    int
	)
	runOne := func(idx int, pool *turnover) {
		res, priv, err := runTenant(&cfg, idx, shared, pool)
		mu.Lock()
		defer mu.Unlock()
		rep.Results[idx] = res
		if priv != nil {
			privN += priv.Compiles()
			privF += priv.FilterCompiles()
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet: tenant %d: %w", idx, err)
		}
	}

	workers := cfg.Workers
	if cfg.Deterministic {
		workers = 1
	}
	// Placement and admission are computed up front as pure functions of
	// (config, schedule), then each shard supervises its members with its
	// own worker pool, all shards at once (one after another when
	// deterministic). Results are byte-identical to a serial run because
	// nothing about a tenant depends on when its shard's pool got to it.
	// An unsharded fleet is one shard with admission off: its plan is the
	// schedule itself, every grant at cycle 0.
	var adm shard.AdmissionConfig
	switch {
	case cfg.Admission != nil:
		adm = *cfg.Admission
	case cfg.Shards > 0:
		adm = shard.DefaultAdmission()
	}
	rep.Shards = shard.Build(cfg.Shards, adm, schedule)
	var wg sync.WaitGroup
	for _, s := range rep.Shards {
		if cfg.Deterministic {
			dispatch(s.Members, workers, runOne)
			continue
		}
		wg.Add(1)
		go func(members []int) {
			defer wg.Done()
			dispatch(members, workers, runOne)
		}(s.Members)
	}
	wg.Wait()
	// Stamp each tenant with its shard's placement and admission outcome
	// (deterministic post-pass; runTenant never sees them).
	for _, s := range rep.Shards {
		for i, idx := range s.Members {
			g := s.Grants[i]
			rep.Results[idx].Shard = s.ID
			rep.Results[idx].AdmitCycles = g.Admit
			rep.Results[idx].AdmitRejects = g.Rejects
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	rep.Compiles = shared.Compiles() + privN
	rep.FilterCompiles = shared.FilterCompiles() + privF
	return rep, nil
}

// dispatch runs runOne over members, in order, on a pool of workers
// goroutines (0 = NumCPU, capped at len(members)), and returns when every
// member is done. A single worker runs the members serially on the
// calling goroutine.
//
// Each worker hands runOne its own turnover pool: the worker's tenants
// run one after another, so each tenant reuses what the tenant before it
// released. The pools die with dispatch; none is shared between
// goroutines or outlives the run.
func dispatch(members []int, workers int, runOne func(int, *turnover)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(members) {
		workers = len(members)
	}
	if workers <= 1 {
		var pool turnover
		for _, idx := range members {
			runOne(idx, &pool)
		}
		return
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pool turnover
			for idx := range ch {
				runOne(idx, &pool)
			}
		}()
	}
	for _, idx := range members {
		ch <- idx
	}
	close(ch)
	wg.Wait()
}

// faultyTarget injects one unit failure at a global unit index.
type faultyTarget struct {
	workload.Target
	base    int // global index of this incarnation's unit 0
	faultAt int
	fired   *bool
}

func (f *faultyTarget) Unit(p *core.Protected, i int) (int64, error) {
	if !*f.fired && f.base+i == f.faultAt {
		*f.fired = true
		return 0, fmt.Errorf("injected fault at unit %d", f.faultAt)
	}
	return f.Target.Unit(p, i)
}

// runTenant drives one tenant to completion, restarting incarnations per
// policy. It returns the tenant's private artifact cache when sharing is
// disabled (for compile accounting). Only compile/launch errors — broken
// configuration, not guest behavior — are returned as errors. Each
// incarnation draws its host buffers from pool and returns them there.
func runTenant(cfg *Config, idx int, shared *Artifacts, pool *turnover) (TenantResult, *Artifacts, error) {
	app := cfg.appOf(idx)
	res := TenantResult{Index: idx, App: app}
	if cfg.Trace {
		res.Metrics = obs.NewRegistry()
	}

	arts := shared
	var priv *Artifacts
	if !cfg.ShareArtifacts {
		priv = NewArtifacts()
		arts = priv
	}

	attackID, malicious := cfg.Malicious[idx]
	attackDone := false
	faultAt, hasFault := cfg.FaultAt[idx]
	faultFired := false
	attempt := 0

	for res.Units < cfg.Units && !res.Dead {
		if attempt > 0 {
			res.BackoffCycles += backoff(attempt)
		}

		// When sharing is off, every incarnation recompiles from scratch,
		// exactly as standalone launches would.
		if priv != nil && attempt > 0 {
			priv = NewArtifacts()
			arts = priv
		}

		prot, target, err := launchTenant(cfg, idx, app, malicious && !attackDone, arts, pool)
		if err != nil {
			return res, priv, err
		}
		res.SetupCycles += prot.Monitor.InitCycles

		remaining := cfg.Units - res.Units
		runUnits := remaining
		injectAttack := malicious && !attackDone
		if injectAttack && remaining > 1 {
			// The attack strikes mid-incarnation: run half the remaining
			// units benignly first.
			runUnits = remaining / 2
		}

		var driver workload.Target = target
		if hasFault && !faultFired {
			driver = &faultyTarget{Target: target, base: res.Units, faultAt: faultAt, fired: &faultFired}
		}

		runErr := runSlice(cfg, &res, app, arts, prot, driver, runUnits)

		if runErr != nil {
			// A killed incarnation's monitor still holds its violations,
			// statistics, and flight recorder — drain before
			// retiring, or a security kill's evidence is lost.
			drainMonitor(&res, prot, target, true)
			retire(cfg, &res, &attempt, classifyKill(runErr))
			continue
		}

		if injectAttack {
			attackDone = true
			out := replayAttack(attackID, prot, target)
			res.Attack = &out
			if out.Completed {
				// The defense let the attack through: quarantine the
				// tenant rather than keep serving from a compromised guest.
				res.Compromised = true
				res.Dead = true
				drainMonitor(&res, prot, target, true)
				break
			}
			drainMonitor(&res, prot, target, out.Killed)
			if out.Killed {
				res.KilledBy = out.KilledBy
				retire(cfg, &res, &attempt, true)
				continue
			}
			// Blocked without a kill: recycle the incarnation to finish the
			// remaining units on a clean guest (no failure charged).
			res.Restarts++
			continue
		}

		drainMonitor(&res, prot, target, false)
		if res.Units >= cfg.Units {
			break
		}
		// Incarnation finished its slice without error but units remain
		// (post-restart continuation): loop launches the next incarnation.
	}
	return res, priv, nil
}

// runSlice drives one incarnation through a slice of units, folding each
// measured segment into res and staging the fleet's policy hot reload
// where the tenant's cumulative unit count crosses cfg.ReloadAt.
//
// The generation is staged, not applied: the monitor swaps it in at its
// next trap boundary, so the guest keeps running throughout and every
// trap is judged under exactly one generation. An incarnation launched
// after the reload point (post-restart) stages the generation before its
// first unit, bringing the fresh monitor up to fleet policy immediately.
func runSlice(cfg *Config, res *TenantResult, app string, arts *Artifacts, prot *core.Protected, driver workload.Target, units int) error {
	done := res.Units
	if cfg.ReloadAt == 0 || done+units <= cfg.ReloadAt {
		wl, err := workload.Run(driver, prot, units)
		accumulate(res, wl)
		return err
	}
	gen, err := reloadGeneration(cfg, app, arts)
	if err != nil {
		return err
	}
	cut := cfg.ReloadAt - done
	if cut <= 0 {
		if err := prot.Monitor.StageGeneration(gen); err != nil {
			return err
		}
		wl, err := workload.Run(driver, prot, units)
		accumulate(res, wl)
		return err
	}
	head, err := workload.Run(driver, prot, cut)
	accumulate(res, head)
	if err != nil {
		return err
	}
	if err := prot.Monitor.StageGeneration(gen); err != nil {
		return err
	}
	tail, err := workload.Continue(driver, prot, cut, units-cut)
	accumulate(res, tail)
	return err
}

// launchTenant builds one incarnation: fresh kernel and clock, fixtures,
// and a monitored launch from (possibly shared) artifacts, its host
// buffers drawn from pool.
func launchTenant(cfg *Config, idx int, app string, withAttackFixtures bool, arts *Artifacts, pool *turnover) (*core.Protected, workload.Target, error) {
	target, err := workload.NewTarget(app)
	if err != nil {
		return nil, nil, err
	}
	if t, ok := target.(*workload.Vsftpd); ok {
		t.Buffers = &pool.vsftpd
	}
	art, err := arts.Compiled(app)
	if err != nil {
		return nil, nil, err
	}

	k := kernel.New(nil)
	k.Buffers = &pool.kernel
	k.Costs.IOPerByte = workload.IOPerByte(app)
	if withAttackFixtures {
		attacks.InstallFixtures(k)
	}
	if err := target.Fixture(k); err != nil {
		return nil, nil, err
	}

	mcfg, err := arts.Config(app, cfg.monitorConfig())
	if err != nil {
		return nil, nil, err
	}
	// Telemetry fields go on the per-incarnation copy after the artifact
	// cache resolves it: they never participate in the shared filter key,
	// and each incarnation gets a private sink.
	if cfg.Trace {
		mcfg.Sink = &obs.BufferSink{}
	}
	mcfg.FlightN = cfg.FlightN

	prot, err := core.Defense{Monitor: mcfg}.Launch(art, k, vm.WithMaxSteps(maxSteps), vm.WithPool(&pool.vm))
	if err != nil {
		return nil, nil, err
	}
	return prot, target, nil
}

// replayAttack adopts the live tenant into an attack environment and runs
// the scenario against it.
func replayAttack(id string, prot *core.Protected, target workload.Target) AttackOutcome {
	s, _ := attacks.ByID(id) // validated in Config.Validate
	out := attacks.Replay(s, attacks.Adopt(prot, target))
	return AttackOutcome{
		ID:        id,
		Completed: out.Completed,
		Killed:    out.Killed,
		KilledBy:  out.KilledBy,
		Reason:    out.Reason,
	}
}

// accumulate folds one workload measurement into the tenant totals.
func accumulate(res *TenantResult, wl workload.Result) {
	res.Units += wl.Units
	res.Bytes += wl.Bytes
	res.InitCycles += wl.InitCycles
	res.TotalCycles += wl.TotalCycles
	res.MonitorCycles += wl.MonitorCycles
	res.Traps += wl.Traps
}

// drainMonitor folds the incarnation's monitor-side statistics into the
// tenant totals (called once per incarnation, after its last guest work,
// on every exit path). crashed marks an incarnation that died rather than
// finished; together with recorded violations it decides whether the
// incarnation's flight recorder is worth keeping. Last, it releases the
// incarnation's host buffers to the worker's pool: nothing reads the
// guest's memory, its kernel event log or the driver's buffers after this.
func drainMonitor(res *TenantResult, prot *core.Protected, target workload.Target, crashed bool) {
	mon := prot.Monitor
	res.FlowChecks += mon.FlowChecks
	res.OffloadAvoided += mon.OffloadAvoided()
	res.Reloads += mon.Reloads
	res.ReloadCycles += mon.ReloadCycles
	if g := mon.Generation().ID; g > res.Gen {
		res.Gen = g
	}
	for _, v := range mon.Violations {
		res.Violations = append(res.Violations, v.String())
		if res.ContextViolations == nil {
			res.ContextViolations = map[monitor.Context]int{}
		}
		res.ContextViolations[v.Context]++
	}
	if res.Metrics != nil && mon.Metrics != nil {
		mustMerge(res.Metrics, mon.Metrics)
	}
	if sink, ok := mon.Cfg.Sink.(*obs.BufferSink); ok && sink != nil {
		// Each incarnation numbers its traps from zero; re-stamp to one
		// tenant-wide sequence so the merged trace stays totally ordered,
		// and stamp the tenant, which the monitor does not know.
		for _, ev := range sink.Events {
			ev.Seq = uint64(len(res.Events))
			ev.Tenant = res.Index
			res.Events = append(res.Events, ev)
		}
	}
	if mon.Recorder != nil && mon.Recorder.Len() > 0 && (crashed || len(mon.Violations) > 0) {
		events := mon.Recorder.Events()
		for i := range events {
			events[i].Tenant = res.Index
		}
		var b strings.Builder
		obs.WriteJSONL(&b, events)
		res.Flight = b.String()
	}
	prot.Machine.Release()
	prot.Proc.Release()
	if t, ok := target.(*workload.Vsftpd); ok {
		t.Release()
	}
}

// turnover is one dispatch worker's pool of what a tenant's incarnation
// allocates in proportion to its size: guest page backings, page arrays,
// the region slice and the register frames (vm), the staging buffer and
// event log (kernel), and the vsFTPd fixture file and download buffer
// (workload). Each incarnation draws from it at launch and drainMonitor
// returns to it on every exit path. Like its parts, it belongs to the one
// worker goroutine that runs its tenants, and it dies with fleet.Run.
type turnover struct {
	vm     vm.Pool
	kernel kernel.Buffers
	vsftpd workload.VsftpdBuffers
}

// retire ends an incarnation after a failure, charging the right counter
// and the restart budget. kill selects the security-kill counter.
func retire(cfg *Config, res *TenantResult, attempt *int, kill bool) {
	if kill {
		res.Kills++
	} else {
		res.Faults++
	}
	if res.Restarts >= cfg.MaxRestarts {
		res.Dead = true
		return
	}
	res.Restarts++
	*attempt++
}

// classifyKill reports whether a workload error is a security kill
// (seccomp or monitor) as opposed to a fault.
func classifyKill(err error) bool {
	var ke *vm.KillError
	return errors.As(err, &ke)
}
