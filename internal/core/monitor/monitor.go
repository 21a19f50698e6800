// Package monitor implements the BASTION runtime monitor (§7): a separate
// "process" that traps sensitive system call invocations via seccomp-BPF,
// fetches the guest's registers, stack, and shadow memory through the
// ptrace facility, and enforces the Call-Type, Control-Flow, and
// Argument-Integrity contexts before allowing the call to proceed. A
// context violation kills the protected application.
//
// Every piece of guest state the monitor touches is fetched through one
// kernel.Tracee, which charges each access to the shared clock: ptrace's
// context-switch-scale costs, the overhead structure Table 7 of the paper
// measures, or an in-kernel monitor's (Config.InKernel).
package monitor

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"bastion/internal/core/metadata"
	"bastion/internal/core/shadow"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/obs"
	"bastion/internal/seccomp"
	"bastion/internal/vm"
)

// Context is a bitmask of enforcement contexts.
type Context uint8

// Contexts.
const (
	CallType Context = 1 << iota
	ControlFlow
	ArgIntegrity
	// SyscallFlow enforces syscall ordering: each trapped syscall must be a
	// legal successor of the previously trapped one under the statically
	// derived transition graph (metadata.FlowGraph), projected once per
	// Generation onto the set of syscalls the policy actually traps. It is
	// the only context with cross-trap state, so it disqualifies verdict
	// offload (see DeriveOffload).
	SyscallFlow

	AllContexts = CallType | ControlFlow | ArgIntegrity | SyscallFlow
)

func (c Context) String() string {
	switch c {
	case CallType:
		return "call-type"
	case ControlFlow:
		return "control-flow"
	case ArgIntegrity:
		return "argument-integrity"
	case SyscallFlow:
		return "syscall-flow"
	}
	s := ""
	for _, one := range []Context{CallType, ControlFlow, ArgIntegrity, SyscallFlow} {
		if c&one != 0 {
			if s != "" {
				s += "+"
			}
			s += one.String()
		}
	}
	if s == "" {
		return "none"
	}
	return s
}

// ParseContexts turns "all" or a comma list of ct, cf, ai and sf (any
// order and case, blanks and empty items ignored) into a context mask. A
// list that enables nothing is an error.
func ParseContexts(list string) (Context, error) {
	s := strings.ToLower(strings.ReplaceAll(list, " ", ""))
	if s == "all" {
		return AllContexts, nil
	}
	var ctx Context
	for _, tok := range strings.Split(s, ",") {
		switch tok {
		case "ct":
			ctx |= CallType
		case "cf":
			ctx |= ControlFlow
		case "ai":
			ctx |= ArgIntegrity
		case "sf":
			ctx |= SyscallFlow
		case "":
		default:
			return 0, fmt.Errorf("contexts must be all or a comma list of ct,cf,ai,sf, got %q", tok)
		}
	}
	if ctx == 0 {
		return 0, fmt.Errorf("contexts list %q enables nothing", list)
	}
	return ctx, nil
}

// Mode selects how much work the monitor does per trap — the three rows of
// Table 7.
type Mode int

// Modes.
const (
	// ModeFull fetches state and verifies all enabled contexts.
	ModeFull Mode = iota
	// ModeFetchOnly fetches registers and the stack, then allows (isolates
	// ptrace cost).
	ModeFetchOnly
	// ModeHookOnly allows immediately on trap (isolates seccomp cost).
	ModeHookOnly
)

func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeFetchOnly:
		return "fetch-only"
	case ModeHookOnly:
		return "hook-only"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Costs are the monitor's own verification charges, on top of ptrace costs
// charged by the kernel facility.
type Costs struct {
	TrapRoundTrip  uint64 // tracee stop + schedule monitor + resume
	CTCheck        uint64
	CFPerFrame     uint64
	AIPerArg       uint64
	PointeePerByte uint64
	// SFCheck is the syscall-flow transition check: one edge-set membership
	// probe per trap, cheaper than CTCheck because no stack is consulted.
	SFCheck uint64
}

// DefaultCosts returns the calibrated monitor cost model.
func DefaultCosts() Costs {
	return Costs{
		TrapRoundTrip: 2600, CTCheck: 60, CFPerFrame: 35, AIPerArg: 90, PointeePerByte: 2,
		SFCheck: 25,
	}
}

// Policy is the deployment's choice of what the seccomp filter enforces:
// with the metadata and Mode it decides the filter byte for byte, and it
// is exactly what a hot reload may change. The filter cache keys on it,
// a Generation carries it, and a reload swaps it whole.
type Policy struct {
	Contexts Context
	// ExtendFS also traps the file-system syscall set (§11.2 / Table 7).
	ExtendFS bool
	// TreeFilter compiles the seccomp policy as a balanced binary search
	// over syscall numbers (seccomp.Policy.CompileTree) instead of the
	// linear comparison chain, dropping per-hook filter cost from O(n) to
	// O(log n) BPF instructions.
	TreeFilter bool
	// Offload lowers verdicts decidable from seccomp_data alone — call-type
	// membership plus constant-argument equality — into the filter program
	// itself, so qualifying syscalls are allowed in-filter
	// (SECCOMP_RET_LOG) and never trap; everything else falls through to
	// SECCOMP_RET_TRACE and the residual monitor. See DeriveOffload for the
	// exact qualification rules (ModeFull only, control-flow disabled,
	// non-sensitive ExtendFS syscalls with uniform register-constant
	// argument sites).
	Offload bool
}

// String names every knob, e.g. "contexts call-type, extend-fs yes, tree
// filter no, offload yes". A struct that embeds Policy, Config included,
// prints as its policy too.
func (p Policy) String() string {
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	return fmt.Sprintf("contexts %s, extend-fs %s, tree filter %s, offload %s",
		p.Contexts, yn(p.ExtendFS), yn(p.TreeFilter), yn(p.Offload))
}

// Config selects the policy, mode, and the monitor's runtime knobs.
type Config struct {
	Policy
	// Mode is a launch decision: a hot reload never changes it.
	Mode Mode
	// AcceptFastPath applies the paper's accept/accept4 optimization
	// (§9.2): the sockaddr out-parameter is verified as a pointer only.
	// Disabling it forces a full pointee walk, for the ablation bench.
	AcceptFastPath bool
	// ReportOnly records violations without killing the guest (used by the
	// security evaluation to observe every violated context in one run).
	ReportOnly bool
	// InKernel runs the monitor inside the kernel (the §11.2 eBPF design):
	// no ptrace context switches, direct access to guest state. This is
	// the paper's proposed optimization for extending coverage to hot
	// system calls.
	InKernel bool
	// Generation, when non-nil, is the launch generation precompiled by
	// NewGeneration, installed instead of compiling one at attach time;
	// fleet supervisors compile a workload's generation once and share it
	// immutably across many tenant launches. Attach fails closed unless it
	// was compiled from the metadata being attached, under this Mode and
	// Policy.
	Generation *Generation
	// Sink, when non-nil, receives one obs.TrapEvent per trap — the
	// decision trace. Telemetry reads the cycle clock but never advances
	// it, so a traced run produces verdicts and cycle accounts
	// byte-identical to an untraced one; with a nil sink the event is
	// never built and Trap stays allocation-free.
	Sink obs.Sink
	// FlightN bounds the flight recorder: the last N trap events are
	// retained and attached to every Violation as its History. 0 disables
	// the recorder.
	FlightN int
	// MaxUnwindDepth bounds stack walks.
	MaxUnwindDepth int
	Costs          Costs
}

// DefaultConfig enables everything with the fast path on.
func DefaultConfig() Config {
	return Config{
		Policy:         Policy{Contexts: AllContexts},
		Mode:           ModeFull,
		AcceptFastPath: true,
		MaxUnwindDepth: 64,
		Costs:          DefaultCosts(),
	}
}

// Violation describes one detected context violation.
type Violation struct {
	Context Context
	Nr      uint32
	Reason  string
	// History is the flight-recorder dump at detection time — the last
	// Config.FlightN trap events oldest-first, the violating trap last.
	// Nil unless the flight recorder is enabled.
	History []obs.TrapEvent
}

func (v Violation) String() string {
	return fmt.Sprintf("%s violation on %s: %s", v.Context, kernel.Name(v.Nr), v.Reason)
}

// Monitor enforces the four contexts for one protected process.
type Monitor struct {
	// Cfg is the attach configuration; its Policy follows the enforced
	// generation.
	Cfg Config

	// gen is the enforced generation: the metadata and everything derived
	// from it under Cfg.Mode and Cfg.Policy. staged is the armed but
	// unapplied one a trap boundary will swap in (see swap.go).
	gen, staged *Generation

	// guest is the only access to the process; shadow loads through it.
	guest  kernel.Tracee
	shadow shadow.Reader

	// Hooks counts SECCOMP_RET_TRACE stops; ChecksByNr per syscall.
	Hooks      uint64
	ChecksByNr kernel.Counts
	// Violations records everything detected (ReportOnly accumulates; kill
	// mode records the fatal one).
	Violations []Violation
	// InitCycles is the simulated cost of monitor startup (metadata load,
	// symbol recovery, seccomp installation).
	InitCycles uint64

	// FlowChecks counts syscall-flow transition checks: every ModeFull
	// trap while the context is enforced.
	FlowChecks uint64

	// Reloads counts applied generation swaps; ReloadCycles their summed
	// simulated cost (the fleet's reload-latency measure). Plain fields,
	// not registry-bound: pre-reload monitors must render byte-identical
	// reports to builds that predate hot reload.
	Reloads      uint64
	ReloadCycles uint64

	// Metrics is the monitor's telemetry registry. Every counter is a
	// plain field — the exported ones above, the stage cycle totals and
	// the violation count below — that the registry renders through a
	// bound pointer; the registry owns only the trap histograms.
	Metrics *obs.Registry
	// Recorder is the flight recorder (nil unless Config.FlightN > 0).
	Recorder *obs.FlightRecorder

	// Syscall-flow transition state: sfPrev/sfActive are the last
	// trapped syscall and whether one was seen — the only cross-trap
	// enforcement state the monitor keeps, which is why syscall-flow
	// verdicts are never offloaded. The generation holds the projection
	// they are checked against.
	sfPrev   uint32
	sfActive bool

	// ev is the current trap's record, reused across traps so the
	// nil-sink path adds no allocations to the hot path. Its stage cycles
	// are differences of clock readings taken at stage boundaries — the
	// clock is read, never advanced, so the breakdown is free and always
	// sums to the trap's total.
	ev           obs.TrapEvent
	frameScratch []stackFrame
	// histByNr holds each syscall slot's trap-cycle histogram, registered
	// on the slot's first trap.
	histByNr [kernel.NrSlots + 1]*obs.Histogram

	// stageCycles sums every trap's ev.Cycles; violations counts flagged
	// violations. Both are bound into Metrics.
	stageCycles                      obs.CycleBreakdown
	violations                       uint64
	histTrap, histDepth, histPointee *obs.Histogram
}

// Attach prepares a process for protection: maps the shadow region into
// the guest, installs the guest-side runtime library, loads the launch
// generation's seccomp filter (compiling the generation unless cfg
// carries one), and registers the monitor as tracer. Launch order mirrors
// §7.1.
func Attach(proc *kernel.Process, meta *metadata.Metadata, cfg Config) (*Monitor, error) {
	if cfg.MaxUnwindDepth == 0 {
		cfg.MaxUnwindDepth = 64
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	g := cfg.Generation
	if g == nil {
		var err error
		if g, err = NewGeneration(0, meta, cfg); err != nil {
			return nil, err
		}
	} else if !g.compiled || g.Meta != meta || g.Mode != cfg.Mode || g.Policy != cfg.Policy {
		return nil, errors.New("monitor: the precompiled generation was not compiled for this metadata, mode and policy")
	}
	m := &Monitor{
		Cfg:   cfg,
		guest: guestAccess(proc, cfg),
	}
	m.initTelemetry()
	if err := shadow.MapRegion(proc.M.Mem); err != nil {
		return nil, fmt.Errorf("monitor: mapping shadow region: %w", err)
	}
	proc.M.Runtime = shadow.NewRuntime(proc.M.Mem)
	m.shadow = shadow.Reader{Src: &m.guest}
	if err := m.install(proc, g); err != nil {
		return nil, err
	}
	proc.SetTracer(m)

	// Initialization cost: ELF/DWARF symbol recovery and metadata load,
	// proportional to metadata size (§7.1; ≈21 ms for NGINX in the paper).
	m.InitCycles = 50_000 +
		40*uint64(len(meta.Callsites)) +
		120*uint64(len(meta.ArgSites)) +
		25*uint64(len(meta.Funcs))
	proc.K.Clock.Add(m.InitCycles)
	return m, nil
}

// guestAccess is the monitor's access to proc, charged as ptrace or, with
// cfg.InKernel, as the §11.2 in-kernel monitor. Only the charges differ.
func guestAccess(proc *kernel.Process, cfg Config) kernel.Tracee {
	if cfg.InKernel {
		return kernel.Tracee{P: proc, Fetch: kernel.InKernelFetch}
	}
	return kernel.Tracee{P: proc, Fetch: cfg.Costs.TrapRoundTrip + proc.K.Costs.GetRegs, ReadBase: proc.K.Costs.ReadMemBase}
}

// projectFlow projects the metadata transition graph onto the set of
// syscalls the seccomp policy actually traps. The monitor only observes
// trapped syscalls, so an edge a→b is legal in the projection iff the full
// graph admits a path a→…→b whose intermediate nodes are all untrapped;
// likewise a trapped syscall may open the flow iff some graph start
// reaches it through untrapped nodes only. Offload never shrinks the
// trapped set here because SyscallFlow disqualifies offload entirely
// (DeriveOffload): an in-filter allow would advance real execution without
// advancing sfPrev, desynchronizing the state machine.
func (gen *Generation) projectFlow() {
	g := gen.Meta.SyscallFlow
	if gen.Policy.Contexts&SyscallFlow == 0 || gen.Mode != ModeFull || g.Empty() {
		return
	}
	// Trapped = syscalls whose policy action is SECCOMP_RET_TRACE. Read
	// from the seccomp policy the generation's filter compiles, so the
	// projection and the filter can never disagree about observability.
	// The policy only acts on implemented syscalls, so every trapped one
	// has its own slot bit.
	trapped := func(nr uint32) bool {
		return kernel.Slot(nr) < kernel.NrSlots && gen.Seccomp.Actions[nr] == seccomp.RetTrace
	}
	// closure returns the slot mask of every trapped node reachable from
	// the given frontier through untrapped intermediate nodes (the
	// frontier nodes themselves are tested first: a trapped frontier node
	// terminates its path).
	closure := func(frontier []uint32) uint64 {
		var out uint64
		seen := map[uint32]bool{}
		for len(frontier) > 0 {
			nr := frontier[0]
			frontier = frontier[1:]
			if seen[nr] {
				continue
			}
			seen[nr] = true
			if trapped(nr) {
				out |= 1 << kernel.Slot(nr)
				continue
			}
			for succ := range g.Edges[nr] {
				if !seen[succ] {
					frontier = append(frontier, succ)
				}
			}
		}
		return out
	}
	gen.sfStart = closure(setKeys(g.Start))
	for nr := range g.Nodes {
		if trapped(nr) {
			gen.sfEdges[kernel.Slot(nr)] = closure(setKeys(g.Edges[nr]))
		}
	}
	gen.sfEnforce = true
}

// setKeys collects an NrSet's members; order is irrelevant because the
// closure computed over them is order-independent.
func setKeys(s metadata.NrSet) []uint32 {
	out := make([]uint32, 0, len(s))
	for nr := range s {
		out = append(out, nr)
	}
	return out
}

// initTelemetry builds the metrics registry, binds the counter fields and
// the per-syscall check counts into it, and sets up the flight recorder and
// the unwind scratch.
func (m *Monitor) initTelemetry() {
	r := obs.NewRegistry()
	r.BindCounter("monitor_hooks_total", &m.Hooks)
	r.BindCounter("monitor_flow_checks_total", &m.FlowChecks)
	r.BindCounterMap("monitor_checks_total", m.ChecksByNr[:], kernel.SlotName)
	if m.guest.P != nil {
		// The kernel counts RET_LOG allows per syscall; with offload active
		// each one is a trap the pure-monitor filter would have taken.
		r.BindCounterMap("monitor_offload_avoided_total", m.guest.P.LogVerdicts[:], kernel.SlotName)
	}
	r.BindCounter("monitor_violations_total", &m.violations)
	r.BindCounter("monitor_cycles_fetch_total", &m.stageCycles.Fetch)
	r.BindCounter("monitor_cycles_unwind_total", &m.stageCycles.Unwind)
	r.BindCounter("monitor_cycles_ct_total", &m.stageCycles.CT)
	r.BindCounter("monitor_cycles_cf_total", &m.stageCycles.CF)
	r.BindCounter("monitor_cycles_ai_total", &m.stageCycles.AI)
	r.BindCounter("monitor_cycles_sf_total", &m.stageCycles.SF)
	m.histTrap = r.Histogram("monitor_trap_cycles", obs.CycleBuckets)
	m.histDepth = r.Histogram("monitor_unwind_depth", obs.DepthBuckets)
	m.histPointee = r.Histogram("monitor_pointee_bytes", obs.ByteBuckets)
	m.Metrics = r
	m.frameScratch = make([]stackFrame, 0, m.Cfg.MaxUnwindDepth)
	if m.Cfg.FlightN > 0 {
		m.Recorder = obs.NewFlightRecorder(m.Cfg.FlightN)
	}
}

// buildPolicy derives the seccomp policy a generation's filter compiles:
// SECCOMP_RET_KILL for not-callable syscalls, SECCOMP_RET_TRACE for
// protected callable ones, SECCOMP_RET_ALLOW otherwise (§7.1). Syscalls the
// offload plan covers are answered in-filter instead of trapping (see
// DeriveOffload). Of cfg only Mode and Policy matter.
func buildPolicy(meta *metadata.Metadata, cfg Config, plan *OffloadPlan) *seccomp.Policy {
	pol := &seccomp.Policy{
		Default:   seccomp.RetAllow,
		Actions:   map[uint32]uint32{},
		CheckArch: true,
	}
	// ModeHookOnly measures pure filter cost (Table 7 row 1): the program
	// still evaluates a comparison per protected syscall but allows instead
	// of stopping the tracee.
	traceAction := seccomp.RetTrace
	if cfg.Mode == ModeHookOnly {
		traceAction = seccomp.RetAllow
	}
	notCallableAction := seccomp.RetKill
	if cfg.Contexts&CallType == 0 && cfg.Mode == ModeFull {
		// With the call-type context disabled (per-context security runs),
		// route not-callable syscalls to the monitor so the remaining
		// contexts can judge them instead of the filter killing outright.
		notCallableAction = seccomp.RetTrace
	}
	for nr := range kernel.Names {
		ct, used := meta.CallTypes[nr]
		switch {
		case !used || !ct.Callable():
			pol.Actions[nr] = notCallableAction
		case kernel.IsSensitive(nr):
			pol.Actions[nr] = traceAction
		}
	}
	// exit paths must never be killed even if unused by the program body.
	delete(pol.Actions, kernel.SysExit)
	delete(pol.Actions, kernel.SysExitGroup)
	if cfg.ExtendFS {
		for _, nr := range kernel.FileSystemSyscalls {
			if ct, used := meta.CallTypes[nr]; used && ct.Callable() {
				pol.Actions[nr] = traceAction
			}
		}
	}
	// Verdict offload: replace the trace action with the in-filter decision
	// for every syscall the plan covers. The plan only ever covers syscalls
	// that currently carry traceAction, so this is a pure subtraction from
	// the trapped set — never from the kill set.
	if len(plan.Rules) > 0 {
		pol.ArgRules = map[uint32]seccomp.ArgRule{}
		for nr, rule := range plan.Rules {
			delete(pol.Actions, nr)
			pol.ArgRules[nr] = rule
		}
	}
	return pol
}

// Trap implements kernel.Tracer: the monitor's per-syscall enforcement.
//
// State fetching is as lazy as the enabled contexts allow: call-type alone
// needs only the innermost frame, while control-flow and argument
// integrity unwind the whole stack. The accept/accept4 fast path (§9.2)
// verifies call type against the innermost frame only — those calls carry
// just an out-parameter sockaddr, and the paper found specializing them
// necessary for their per-request frequency.
func (m *Monitor) Trap(p *kernel.Process) error {
	m.Hooks++
	m.ev = obs.TrapEvent{Start: p.K.Clock.Cycles}
	nViol := len(m.Violations)
	err := m.trap(p)
	m.observe(p, nViol)
	// A staged generation applies at the END of the trap: this trap's
	// verdicts were issued and observed under the old generation, and the
	// guest's next syscall meets the new filter and new metadata together
	// — the boundary that makes a reload un-tearable. A killing trap skips
	// the swap; the incarnation is over.
	if err == nil && m.staged != nil {
		if aerr := m.applyGeneration(p); aerr != nil {
			return aerr
		}
	}
	return err
}

// trap is the enforcement body; it writes the trap's account into m.ev as
// it goes, and Trap wraps it with the telemetry bracket. Stage timings
// are clock-reading differences around the existing charges — nothing
// here adds cycles.
func (m *Monitor) trap(p *kernel.Process) error {
	if m.Cfg.Mode == ModeHookOnly {
		return nil
	}
	ev := &m.ev
	clk := &p.K.Clock.Cycles
	c := *clk
	regs := m.guest.Regs()
	ev.Cycles.Fetch = *clk - c
	nr := uint32(regs.RAX)
	ev.Nr = nr
	m.ChecksByNr.Inc(nr)

	fast := m.Cfg.Mode == ModeFull && m.Cfg.AcceptFastPath &&
		(nr == kernel.SysAccept || nr == kernel.SysAccept4)
	needStack := m.Cfg.Mode == ModeFetchOnly ||
		(!fast && m.Cfg.Contexts&(ControlFlow|ArgIntegrity) != 0)

	c = *clk
	var trace []stackFrame
	var clean bool
	var err error
	if needStack {
		trace, clean, err = m.unwind(regs)
	} else {
		trace, err = m.innermostFrame(regs)
	}
	ev.Cycles.Unwind = *clk - c
	ev.UnwindDepth = len(trace)
	if err != nil {
		ev.CF = obs.VerdictViolation
		return m.flag(Violation{Context: ControlFlow, Nr: nr, Reason: "stack unwind failed: " + err.Error()})
	}
	if m.Cfg.Mode == ModeFetchOnly {
		return nil
	}

	// Syscall-flow context: the transition check runs on every ModeFull
	// trap (including the accept fast path) because the state machine
	// must advance on every observed syscall, violations and report-only
	// runs included, to keep judging later transitions from the syscall
	// that actually executed.
	if m.gen.sfEnforce {
		c = *clk
		m.FlowChecks++
		p.K.Clock.Add(m.Cfg.Costs.SFCheck)
		var v *Violation
		bit := uint64(1) << kernel.Slot(nr)
		if !m.sfActive {
			if m.gen.sfStart&bit == 0 {
				v = &Violation{Context: SyscallFlow, Nr: nr,
					Reason: fmt.Sprintf("%s cannot be the first trapped syscall", kernel.Name(nr))}
			}
		} else if m.gen.sfEdges[kernel.Slot(m.sfPrev)]&bit == 0 {
			v = &Violation{Context: SyscallFlow, Nr: nr,
				Reason: fmt.Sprintf("transition %s -> %s is outside the flow graph", kernel.Name(m.sfPrev), kernel.Name(nr))}
		}
		m.sfPrev, m.sfActive = nr, true
		if err := m.judge(v, &ev.SF, &ev.Cycles.SF, c); err != nil {
			return err
		}
	}

	if m.Cfg.Contexts&CallType != 0 {
		c = *clk
		p.K.Clock.Add(m.Cfg.Costs.CTCheck)
		if err := m.judge(m.checkCallType(nr, trace), &ev.CT, &ev.Cycles.CT, c); err != nil {
			return err
		}
	}
	if fast {
		// Fast path (§9.2): verify what the already-fetched innermost frame
		// supports — the immediate callee→caller link and the constant
		// flag arguments — and skip the full walk, binding lookups, and the
		// sockaddr pointee (kernel-written output). A violation ends the
		// trap even in report-only mode.
		if m.Cfg.Contexts&ControlFlow != 0 && len(trace) == 1 {
			c = *clk
			p.K.Clock.Add(m.Cfg.Costs.CFPerFrame)
			var v *Violation
			if cs := m.gen.tables.site(trace[0].Ret); cs != nil && cs.kind == metadata.SiteDirect && !cs.callerOK {
				t := m.gen.tables
				v = &Violation{Context: ControlFlow, Nr: nr,
					Reason: fmt.Sprintf("%s is not a valid caller of %s", t.names[cs.caller], t.names[cs.target])}
			}
			if err := m.judge(v, &ev.CF, &ev.Cycles.CF, c); err != nil || v != nil {
				return err
			}
		}
		if m.Cfg.Contexts&ArgIntegrity != 0 && len(trace) == 1 {
			c = *clk
			var v *Violation
			if cs := m.gen.tables.site(trace[0].Ret); cs != nil {
				for _, spec := range cs.args {
					if spec.Kind != metadata.ArgConst {
						continue
					}
					p.K.Clock.Add(m.Cfg.Costs.AIPerArg)
					if regs.Arg(spec.Pos) != uint64(spec.Const) {
						v = &Violation{Context: ArgIntegrity, Nr: nr,
							Reason: fmt.Sprintf("arg %d is %#x, expected constant %#x", spec.Pos, regs.Arg(spec.Pos), uint64(spec.Const))}
						break
					}
				}
			}
			return m.judge(v, &ev.AI, &ev.Cycles.AI, c)
		}
		return nil
	}
	if m.Cfg.Contexts&ControlFlow != 0 {
		c = *clk
		if err := m.judge(m.checkControlFlow(nr, regs, trace, clean), &ev.CF, &ev.Cycles.CF, c); err != nil {
			return err
		}
	}
	if m.Cfg.Contexts&ArgIntegrity != 0 {
		c = *clk
		return m.judge(m.checkArgIntegrity(nr, regs, trace), &ev.AI, &ev.Cycles.AI, c)
	}
	return nil
}

// judge closes one context's stage of the current trap: it attributes the
// cycles since the stage began, records the verdict, and flags v when the
// context rejected the trap.
func (m *Monitor) judge(v *Violation, verdict *obs.Verdict, cycles *uint64, since uint64) error {
	*cycles = m.guest.P.K.Clock.Cycles - since
	if v == nil {
		*verdict = obs.VerdictPass
		return nil
	}
	*verdict = obs.VerdictViolation
	return m.flag(*v)
}

// observe closes the telemetry bracket around one trap: it feeds the
// counters and histograms, completes m.ev if a sink or the flight
// recorder reads it, and attaches the flight-recorder history to any
// violations this trap raised. With a nil sink and no recorder it does
// a few counter additions and histogram observations — no allocations.
func (m *Monitor) observe(p *kernel.Process, nViol int) {
	ev := &m.ev
	end := p.K.Clock.Cycles
	t := &m.stageCycles
	t.Fetch += ev.Cycles.Fetch
	t.Unwind += ev.Cycles.Unwind
	t.CT += ev.Cycles.CT
	t.CF += ev.Cycles.CF
	t.AI += ev.Cycles.AI
	t.SF += ev.Cycles.SF
	m.histTrap.Observe(end - ev.Start)
	if m.Cfg.Mode != ModeHookOnly {
		m.histDepth.Observe(uint64(ev.UnwindDepth))
		m.histPointee.Observe(ev.PointeeBytes)
		s := kernel.Slot(ev.Nr)
		h := m.histByNr[s]
		if h == nil {
			h = m.Metrics.Histogram("monitor_trap_cycles["+kernel.SlotName(s)+"]", obs.CycleBuckets)
			m.histByNr[s] = h
		}
		h.Observe(end - ev.Start)
	}
	if m.Cfg.Sink == nil && m.Recorder == nil {
		return
	}
	if m.Cfg.Mode == ModeHookOnly {
		// Hook-only traps never fetch registers; read the number directly
		// for the trace record (telemetry is free, the simulation is not).
		ev.Nr = uint32(p.M.SysRegs.RAX)
	}
	ev.Seq = m.Hooks - 1
	ev.Name = kernel.Name(ev.Nr)
	ev.End = end
	ev.Gen = m.gen.ID
	if len(m.Violations) > nViol {
		ev.Violation = m.Violations[nViol].String()
	}
	if m.Recorder != nil {
		m.Recorder.Add(ev)
		if len(m.Violations) > nViol {
			history := m.Recorder.Events()
			for i := nViol; i < len(m.Violations); i++ {
				m.Violations[i].History = history
			}
		}
	}
	if m.Cfg.Sink != nil {
		m.Cfg.Sink.Emit(ev)
	}
}

// innermostFrame reads just the first frame of the chain (the call-type
// context's minimal need).
func (m *Monitor) innermostFrame(regs vm.Regs) ([]stackFrame, error) {
	if regs.RBP == 0 {
		return nil, nil
	}
	ret, err := m.guest.Load(regs.RBP + 8)
	if err != nil || ret == 0 {
		return nil, err
	}
	return append(m.frameScratch[:0], stackFrame{Ret: ret, BP: regs.RBP}), nil
}

// flag records a violation; in kill mode it returns the fatal error the
// kernel turns into process termination.
func (m *Monitor) flag(v Violation) error {
	m.Violations = append(m.Violations, v)
	m.violations++
	if m.Cfg.ReportOnly {
		return nil
	}
	return &vm.KillError{By: "monitor", Reason: v.String()}
}

// OffloadAvoided reports how many traps the in-filter verdict offload
// answered without stopping the tracee (total RET_LOG allows the kernel
// counted). Zero when offload is off or nothing qualified.
func (m *Monitor) OffloadAvoided() uint64 {
	if m.guest.P == nil {
		return 0
	}
	var n uint64
	for _, c := range m.guest.P.LogVerdicts {
		n += c
	}
	return n
}

// FlowState returns the syscall-flow transition state: the last trapped
// syscall number and whether any syscall has been observed yet. Exposed
// for the flow and fault-injection suites.
func (m *Monitor) FlowState() (nr uint32, active bool) {
	return m.sfPrev, m.sfActive
}

// SetFlowState overwrites the syscall-flow transition state. It exists so
// the flow and fault-injection suites can corrupt the cross-trap state
// between two otherwise identical traps and prove the monitor flags the
// resulting violation.
func (m *Monitor) SetFlowState(nr uint32, active bool) {
	m.sfPrev, m.sfActive = nr, active
}

// FlowEnforced reports whether the syscall-flow context is live: enabled,
// ModeFull, and backed by a non-empty projected graph.
func (m *Monitor) FlowEnforced() bool { return m.gen.sfEnforce }

// ViolatedContexts returns the union of violated contexts recorded so far.
func (m *Monitor) ViolatedContexts() Context {
	var c Context
	for _, v := range m.Violations {
		c |= v.Context
	}
	return c
}

// stackFrame is one unwound frame: the return address and the frame
// pointer it was read through.
type stackFrame struct {
	Ret uint64
	BP  uint64
}

// unwind walks the frame-pointer chain through ptrace reads, returning the
// frames innermost-first. clean reports that the walk terminated at the
// stack-bottom sentinel (the zero return address the loader plants at
// process start); a walk that dead-ends anywhere else — a null frame
// pointer, or the depth cap — did not reach the process base and is a
// control-flow violation (§7.3 unwinds "until the bottom of the stack").
func (m *Monitor) unwind(regs vm.Regs) (frames []stackFrame, clean bool, err error) {
	// The scratch slice is sized to MaxUnwindDepth at attach time, so the
	// appends below never grow it: the walk is allocation-free. Frames are
	// only ever used within the current trap.
	frames = m.frameScratch[:0]
	bp := regs.RBP
	for i := 0; i < m.Cfg.MaxUnwindDepth; i++ {
		if bp == 0 {
			return frames, false, nil
		}
		ret, err := m.guest.Load(bp + 8)
		if err != nil {
			return frames, false, err
		}
		if ret == 0 {
			return frames, true, nil
		}
		frames = append(frames, stackFrame{Ret: ret, BP: bp})
		bp, err = m.guest.Load(bp)
		if err != nil {
			return frames, false, err
		}
	}
	return frames, false, nil
}

// checkCallType enforces §7.2: the syscall must be callable, and the
// invoking callsite's kind (direct/indirect) must be permitted.
func (m *Monitor) checkCallType(nr uint32, trace []stackFrame) *Violation {
	t := m.gen.tables
	ct := t.callTypeOf(m.gen.Meta, nr)
	if !ct.direct && !ct.indirect {
		return &Violation{Context: CallType, Nr: nr, Reason: "not-callable system call invoked"}
	}
	if len(trace) == 0 {
		return &Violation{Context: CallType, Nr: nr, Reason: "no invoking callsite on stack"}
	}
	cs := t.site(trace[0].Ret)
	if cs == nil {
		return &Violation{Context: CallType, Nr: nr, Reason: fmt.Sprintf("invoked from unknown callsite (ret %#x)", trace[0].Ret)}
	}
	switch cs.kind {
	case metadata.SiteDirect:
		if !ct.direct {
			return &Violation{Context: CallType, Nr: nr, Reason: "direct invocation not permitted"}
		}
		if cs.target != ct.wrapper {
			return &Violation{Context: CallType, Nr: nr, Reason: fmt.Sprintf("callsite targets %q, not wrapper %q", t.names[cs.target], t.names[ct.wrapper])}
		}
	case metadata.SiteIndirect:
		if !ct.indirect {
			return &Violation{Context: CallType, Nr: nr, Reason: "indirect invocation not permitted"}
		}
	}
	return nil
}

// checkControlFlow enforces §7.3: every callee→caller transition on the
// stack must match the CFG metadata, until main (the sentinel) or a
// legitimate indirect callsite is reached. Functions are compared by
// their index in the generation's name table.
func (m *Monitor) checkControlFlow(nr uint32, regs vm.Regs, trace []stackFrame, clean bool) *Violation {
	if !clean {
		return &Violation{Context: ControlFlow, Nr: nr, Reason: "stack walk did not reach the process base"}
	}
	m.guest.P.K.Clock.Add(m.Cfg.Costs.CFPerFrame * uint64(len(trace)+1))
	t := m.gen.tables
	prevFn := t.funcOf(regs.RIP) // the wrapper containing the syscall
	if prevFn == 0 {
		return &Violation{Context: ControlFlow, Nr: nr, Reason: "syscall executing outside known code"}
	}
	prevBP := uint64(0)
	for _, fr := range trace {
		// Frames must live in the process stack region (known to the
		// monitor from the memory map) and ascend strictly toward the
		// stack base: a pivot into a buffer, the heap, or globals breaks
		// one of the two.
		if fr.BP < ir.StackTop-ir.StackSize || fr.BP >= ir.StackTop {
			return &Violation{Context: ControlFlow, Nr: nr, Reason: fmt.Sprintf("frame %#x outside the stack region (pivot)", fr.BP)}
		}
		if fr.BP <= prevBP {
			return &Violation{Context: ControlFlow, Nr: nr, Reason: fmt.Sprintf("frame chain not ascending at %#x (stack pivot)", fr.BP)}
		}
		prevBP = fr.BP
		cs := t.site(fr.Ret)
		if cs == nil {
			return &Violation{Context: ControlFlow, Nr: nr, Reason: fmt.Sprintf("return address %#x is not a callsite", fr.Ret)}
		}
		if cs.kind == metadata.SiteIndirect {
			// Verification of the partial trace ends at a legitimate
			// indirect callsite, provided the callee is a known indirect
			// target whose class can reach this syscall (§6.2, §7.3).
			if !t.isIndirectTarget(prevFn) {
				return &Violation{Context: ControlFlow, Nr: nr, Reason: fmt.Sprintf("%s reached via indirect call but its address is never taken", t.names[prevFn])}
			}
			// A syscall with an AllowedIndirect entry is constrained to the
			// recorded callsites; a present-but-empty set therefore rejects
			// every indirect path. Unconstrained syscalls have no entry.
			if addr := fr.Ret - ir.InstrSize; !t.indirectAllowed(m.gen.Meta, nr, cs, addr) {
				return &Violation{Context: ControlFlow, Nr: nr, Reason: fmt.Sprintf("indirect callsite %#x cannot legitimately reach %s", addr, kernel.Name(nr))}
			}
			return nil
		}
		if cs.target != prevFn {
			return &Violation{Context: ControlFlow, Nr: nr, Reason: fmt.Sprintf("frame mismatch: callsite in %s targets %s, stack has %s", t.names[cs.caller], t.names[cs.target], t.names[prevFn])}
		}
		if !cs.callerOK {
			return &Violation{Context: ControlFlow, Nr: nr, Reason: fmt.Sprintf("%s is not a valid caller of %s", t.names[cs.caller], t.names[prevFn])}
		}
		prevFn = cs.caller
	}
	return nil
}

// extendedKind describes monitor-side extended-argument rules (§6.3.2):
// which (syscall, position) pairs carry pointers whose pointee must be
// verified, and how.
type extendedKind int

const (
	extNone extendedKind = iota
	extCString
	extBytes // fixed-size struct (sockaddr)
	extOut   // out-parameter: pointer value only
)

// extendedRule returns the rule for a syscall argument position. The list
// is short because the sensitive syscall set is short (§6.3.2).
func extendedRule(nr uint32, pos int) extendedKind {
	switch nr {
	case kernel.SysExecve:
		if pos == 1 {
			return extCString
		}
	case kernel.SysExecveat:
		if pos == 2 {
			return extCString
		}
	case kernel.SysChmod:
		if pos == 1 {
			return extCString
		}
	case kernel.SysOpen, kernel.SysStat:
		if pos == 1 {
			return extCString
		}
	case kernel.SysOpenat:
		if pos == 2 {
			return extCString
		}
	case kernel.SysBind, kernel.SysConnect:
		if pos == 2 {
			return extBytes
		}
	case kernel.SysAccept, kernel.SysAccept4:
		if pos == 2 {
			return extOut
		}
	}
	return extNone
}

// checkArgIntegrity enforces §7.4: the syscall frame's arguments are
// verified against bindings and shadow copies; outer frames' bound
// sensitive variables are verified shadow-vs-memory.
func (m *Monitor) checkArgIntegrity(nr uint32, regs vm.Regs, trace []stackFrame) *Violation {
	if len(trace) == 0 {
		return nil
	}
	t := m.gen.tables
	cs := t.site(trace[0].Ret)
	if cs == nil {
		// No legitimate callsite means no traced arguments exist for this
		// invocation at all.
		if kernel.IsSensitive(nr) {
			return &Violation{Context: ArgIntegrity, Nr: nr,
				Reason: fmt.Sprintf("%s invoked from unknown callsite: arguments untraceable", kernel.Name(nr))}
		}
		return nil
	}
	callAddr := trace[0].Ret - ir.InstrSize
	if !cs.hasArgs || !cs.isSyscall {
		// A sensitive syscall fired from a callsite whose arguments were
		// never part of any legal invocation (§3.4: the leveraged
		// variables are "never used by any legal system call invocation").
		if kernel.IsSensitive(nr) {
			return &Violation{Context: ArgIntegrity, Nr: nr,
				Reason: fmt.Sprintf("callsite %#x has no traced arguments for %s", callAddr, kernel.Name(nr))}
		}
		return nil
	}
	if v := m.checkSyscallFrameArgs(nr, regs, callAddr, cs.args); v != nil {
		return v
	}
	// Outer frames: verify bound sensitive variables shadow-vs-memory.
	for _, fr := range trace[1:] {
		ocs := t.site(fr.Ret)
		if ocs == nil {
			return nil
		}
		outer := fr.Ret - ir.InstrSize
		for _, spec := range ocs.args {
			if spec.Kind != metadata.ArgMem {
				continue
			}
			m.guest.P.K.Clock.Add(m.Cfg.Costs.AIPerArg)
			addr, isConst, bound, err := m.shadow.Binding(outer, spec.Pos)
			if err != nil {
				return &Violation{Context: ArgIntegrity, Nr: nr,
					Reason: fmt.Sprintf("shadow binding unreadable in %s frame", m.gen.Meta.ArgSites[outer].Caller)}
			}
			if !bound || isConst {
				continue
			}
			v, meta, ok, err := m.shadow.Value(addr)
			if err != nil || !ok {
				return &Violation{Context: ArgIntegrity, Nr: nr,
					Reason: fmt.Sprintf("no shadow copy for sensitive variable %#x in %s frame", addr, m.gen.Meta.ArgSites[outer].Caller)}
			}
			size := int64(meta & shadow.MetaSizeMask)
			if size <= 0 || size > 8 || meta&shadow.MetaDigest != 0 {
				continue
			}
			cur, err := m.guest.Uint(addr, size)
			if err != nil {
				return &Violation{Context: ArgIntegrity, Nr: nr, Reason: "sensitive variable unreadable"}
			}
			if cur != v {
				return &Violation{Context: ArgIntegrity, Nr: nr,
					Reason: fmt.Sprintf("sensitive variable at %#x in %s frame corrupted (%#x != shadow %#x)", addr, m.gen.Meta.ArgSites[outer].Caller, cur, v)}
			}
		}
	}
	return nil
}

// checkSyscallFrameArgs verifies the trapping syscall's own arguments
// against the argument record of the call instruction at callAddr.
func (m *Monitor) checkSyscallFrameArgs(nr uint32, regs vm.Regs, callAddr uint64, args []metadata.ArgSpec) *Violation {
	for _, spec := range args {
		m.guest.P.K.Clock.Add(m.Cfg.Costs.AIPerArg)
		actual := regs.Arg(spec.Pos)
		switch spec.Kind {
		case metadata.ArgConst:
			if actual != uint64(spec.Const) {
				return &Violation{Context: ArgIntegrity, Nr: nr,
					Reason: fmt.Sprintf("arg %d is %#x, expected constant %#x", spec.Pos, actual, uint64(spec.Const))}
			}
		case metadata.ArgMem:
			if v := m.checkMemArg(nr, callAddr, spec, actual); v != nil {
				return v
			}
		}
	}
	return nil
}

func (m *Monitor) checkMemArg(nr uint32, addr uint64, spec metadata.ArgSpec, actual uint64) *Violation {
	bound, isConst, ok, err := m.shadow.Binding(addr, spec.Pos)
	if err != nil {
		return &Violation{Context: ArgIntegrity, Nr: nr, Reason: "shadow binding unreadable"}
	}
	if !ok {
		return &Violation{Context: ArgIntegrity, Nr: nr,
			Reason: fmt.Sprintf("arg %d has no runtime binding (instrumentation bypassed)", spec.Pos)}
	}
	if isConst {
		if actual != bound {
			return &Violation{Context: ArgIntegrity, Nr: nr,
				Reason: fmt.Sprintf("arg %d is %#x, expected bound constant %#x", spec.Pos, actual, bound)}
		}
		return nil
	}
	if spec.Deref {
		// The argument is a pointer to a known object: the pointer itself
		// must match the binding, then extended rules may verify pointee.
		if actual != bound {
			return &Violation{Context: ArgIntegrity, Nr: nr,
				Reason: fmt.Sprintf("arg %d pointer %#x diverted from %#x", spec.Pos, actual, bound)}
		}
		return m.checkPointee(nr, spec, actual)
	}
	// Memory-backed value: compare the register against the shadow copy.
	v, meta, ok, err := m.shadow.Value(bound)
	if err != nil {
		return &Violation{Context: ArgIntegrity, Nr: nr, Reason: "shadow value unreadable"}
	}
	if !ok {
		return &Violation{Context: ArgIntegrity, Nr: nr,
			Reason: fmt.Sprintf("arg %d: no shadow copy for %#x", spec.Pos, bound)}
	}
	size := int64(meta & shadow.MetaSizeMask)
	if meta&shadow.MetaDigest != 0 {
		// Shadow holds a digest of a larger object; verify the pointee the
		// register points to. The size comes from guest-writable shadow
		// memory, so the pointee is digested as it streams in, never
		// copied whole: a forged size costs the host no allocation.
		h := shadow.DigestInit
		fold := func(b []byte) { h = shadow.DigestUpdate(h, b) }
		if err := m.guest.Stream(actual, uint64(size), fold); err != nil {
			return &Violation{Context: ArgIntegrity, Nr: nr, Reason: "pointee unreadable"}
		}
		m.guest.P.K.Clock.Add(m.Cfg.Costs.PointeePerByte * uint64(size))
		m.ev.PointeeBytes += uint64(size)
		if h != v {
			return &Violation{Context: ArgIntegrity, Nr: nr,
				Reason: fmt.Sprintf("arg %d pointee digest mismatch", spec.Pos)}
		}
		return nil
	}
	mask := ^uint64(0)
	if size > 0 && size < 8 {
		mask = 1<<(8*size) - 1
	}
	if actual&mask != v&mask {
		return &Violation{Context: ArgIntegrity, Nr: nr,
			Reason: fmt.Sprintf("arg %d is %#x, shadow copy says %#x", spec.Pos, actual, v)}
	}
	if extendedRule(nr, spec.Pos) == extCString {
		// The value is itself a pointer (e.g. ctx->path in execve): also
		// verify the string it points to.
		return m.checkCStringPointee(nr, spec.Pos, actual)
	}
	return nil
}

// checkPointee applies the extended-argument rule for a Deref argument.
func (m *Monitor) checkPointee(nr uint32, spec metadata.ArgSpec, ptr uint64) *Violation {
	rule := extendedRule(nr, spec.Pos)
	if rule == extOut && m.Cfg.AcceptFastPath {
		return nil // paper's accept/accept4 fast path (§9.2)
	}
	switch rule {
	case extCString:
		return m.checkCStringPointee(nr, spec.Pos, ptr)
	case extBytes:
		return m.walkPointee(nr, spec.Pos, ptr, spec.Size, true)
	case extOut:
		return m.walkPointee(nr, spec.Pos, ptr, spec.Size, false)
	}
	return nil
}

// readCString reads a NUL-terminated guest string of at most max bytes.
// It reads 64-byte chunks, so a string that ends right before a mapping
// boundary is still readable.
func (m *Monitor) readCString(ptr uint64, max int) (string, error) {
	buf := make([]byte, max)
	for i := 0; i < max; i += 64 {
		end := min(i+64, max)
		if err := m.guest.Read(ptr+uint64(i), buf[i:end]); err != nil {
			return "", err
		}
		if j := bytes.IndexByte(buf[i:end], 0); j >= 0 {
			return string(buf[:i+j]), nil
		}
	}
	return "", fmt.Errorf("monitor: unterminated string at %#x", ptr)
}

// checkCStringPointee verifies a NUL-terminated pointee byte-for-byte
// against shadow entries, honoring the granularity instrumentation used.
func (m *Monitor) checkCStringPointee(nr uint32, pos int, ptr uint64) *Violation {
	s, err := m.readCString(ptr, 256)
	if err != nil {
		return &Violation{Context: ArgIntegrity, Nr: nr, Reason: "extended argument string unreadable"}
	}
	m.guest.P.K.Clock.Add(m.Cfg.Costs.PointeePerByte * uint64(len(s)+1))
	m.ev.PointeeBytes += uint64(len(s) + 1)
	return m.verifyBytes(nr, pos, ptr, append([]byte(s), 0), true)
}

// walkPointee verifies a fixed-size pointee region. requireCoverage
// rejects regions with no shadowed bytes at all (in-parameters must
// originate from instrumented writes); out-parameters pass it false.
func (m *Monitor) walkPointee(nr uint32, pos int, ptr uint64, size int64, requireCoverage bool) *Violation {
	if size <= 0 || size > 4096 {
		return nil
	}
	data := make([]byte, size)
	if err := m.guest.Read(ptr, data); err != nil {
		return &Violation{Context: ArgIntegrity, Nr: nr, Reason: "extended argument region unreadable"}
	}
	m.guest.P.K.Clock.Add(m.Cfg.Costs.PointeePerByte * uint64(size))
	m.ev.PointeeBytes += uint64(size)
	return m.verifyBytes(nr, pos, ptr, data, requireCoverage)
}

// verifyBytes compares pointee bytes against shadow entries, walking the
// contiguously covered prefix from the base: legitimate writers fill these
// regions front-to-back (strings, sockaddr headers), and stopping at the
// first uncovered byte avoids matching stale entries left at reused stack
// addresses by unrelated earlier frames. Covered bytes must match. With
// requireCoverage, a region whose first byte is uncovered is itself a
// violation: the data never originated from instrumented program writes.
func (m *Monitor) verifyBytes(nr uint32, pos int, base uint64, data []byte, requireCoverage bool) *Violation {
	covered := int64(0)
	for i := int64(0); i < int64(len(data)); {
		v, meta, ok, err := m.shadow.Value(base + uint64(i))
		if err != nil {
			return &Violation{Context: ArgIntegrity, Nr: nr, Reason: "shadow unreadable during pointee walk"}
		}
		if !ok || meta&shadow.MetaDigest != 0 {
			break
		}
		size := int64(meta & shadow.MetaSizeMask)
		if size <= 0 || size > 8 {
			i++
			continue
		}
		// An entry may straddle the region end (a legitimate pointee whose
		// last shadowed write extends past the buffer): only the bytes
		// inside the region are comparable, so clamp the reconstruction and
		// the coverage count instead of padding with zeros.
		avail := size
		if rem := int64(len(data)) - i; avail > rem {
			avail = rem
		}
		var cur uint64
		for j := avail - 1; j >= 0; j-- {
			cur = cur<<8 | uint64(data[i+j])
		}
		mask := ^uint64(0)
		if avail < 8 {
			mask = 1<<(8*avail) - 1
		}
		if cur&mask != v&mask {
			return &Violation{Context: ArgIntegrity, Nr: nr,
				Reason: fmt.Sprintf("extended arg %d corrupted at %#x (+%d)", pos, base, i)}
		}
		covered += avail
		i += avail
	}
	if requireCoverage && covered == 0 && len(data) > 0 {
		return &Violation{Context: ArgIntegrity, Nr: nr,
			Reason: fmt.Sprintf("extended arg %d points to untraced data at %#x", pos, base)}
	}
	return nil
}

// Report renders a human-readable enforcement summary: hook counts per
// syscall, configuration, and any violations. Every figure is read from
// the metrics registry (the exported fields are its bound storage), so
// the report and a registry snapshot can never disagree.
func (m *Monitor) Report() string {
	var b strings.Builder
	reg := m.Metrics
	fmt.Fprintf(&b, "BASTION monitor: contexts=%s mode=%s hooks=%d\n",
		m.Cfg.Contexts, m.Cfg.Mode, reg.Counter("monitor_hooks_total").Value())
	if rules := m.gen.Offload.Rules; len(rules) > 0 {
		fmt.Fprintf(&b, "  verdict offload: %d syscalls in-filter, %d traps avoided\n",
			len(rules), m.OffloadAvoided())
		for _, row := range reg.CounterMapRows("monitor_offload_avoided_total") {
			fmt.Fprintf(&b, "  %-18s %d traps avoided\n", row.Label, row.Value)
		}
	}
	for _, row := range reg.CounterMapRows("monitor_checks_total") {
		fmt.Fprintf(&b, "  %-18s %d checks\n", row.Label, row.Value)
	}
	if len(m.Violations) == 0 {
		b.WriteString("  no violations\n")
	} else {
		fmt.Fprintf(&b, "  %d violations\n", len(m.Violations))
		for _, v := range m.Violations {
			fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
		}
	}
	return b.String()
}
