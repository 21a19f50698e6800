// Package attacks implements the security case studies of §10 (Table 6):
// 36 attacks spanning return-oriented programming, direct system call
// manipulation (NEWTON CsCFI, AOCR, CVE-derived exploits), and indirect
// manipulation (NEWTON CPI, COOP, Control Jujutsu), plus an ordering
// family in which every individual syscall is legitimate and only the
// syscall-flow context detects the replayed or reordered lifecycle
// phase. Each scenario stages
// its corruption against a real guest application using only the threat
// model's primitives — arbitrary memory read/write plus an application
// vulnerability trigger — and success is decided by observing kernel
// security events, not by scripted flags.
package attacks

import (
	"bytes"
	"errors"
	"fmt"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/kernel/fs"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// Defense selects the protection configuration an attack runs against.
type Defense = core.Defense

// Canonical defenses for the evaluation.
var (
	DefNone = Defense{Name: "unprotected"}
	DefCT   = Defense{Name: "CT", Monitor: core.Enforcing(monitor.CallType)}
	DefCF   = Defense{Name: "CF", Monitor: core.Enforcing(monitor.ControlFlow)}
	DefAI   = Defense{Name: "AI", Monitor: core.Enforcing(monitor.ArgIntegrity)}
	DefSF   = Defense{Name: "SF", Monitor: core.Enforcing(monitor.SyscallFlow)}
	DefAll  = Defense{Name: "BASTION", Monitor: core.Enforcing(monitor.AllContexts)}
	DefCET  = Defense{Name: "CET", CET: true}
	DefCFI  = Defense{Name: "LLVM-CFI", CFI: true}
)

// Defenses is the standard defense set in report order: unprotected, each
// context in isolation, full BASTION, CET and CFI.
var Defenses = []Defense{DefNone, DefCT, DefCF, DefAI, DefSF, DefAll, DefCET, DefCFI}

// ClientConn is the client half of a guest connection, as attack payload
// delivery needs it.
type ClientConn interface {
	ClientWrite([]byte) (int, error)
	ClientReadAll() []byte
}

// Env is a launched application plus the attacker's toolbox.
type Env struct {
	App  string
	P    *core.Protected
	Conn ClientConn

	// LastErr records the most recent guest-execution error (kills land
	// here).
	LastErr error

	// clientFD is the established connection fd for connection-oriented
	// apps (sqlite): the workload's first terminal.
	clientFD uint64
	// listenFD is the server's listen fd, as the workload's Init left it.
	listenFD uint64

	eventMark int
}

// ClientFD returns the pre-established connection's guest fd.
func (e *Env) ClientFD() uint64 { return e.clientFD }

// Call drives a guest function, recording any kill/fault.
func (e *Env) Call(fn string, args ...uint64) uint64 {
	if e.P.Machine.Halted() {
		return 0
	}
	v, err := e.P.Machine.CallFunction(fn, args...)
	if err != nil {
		e.LastErr = err
	}
	return v
}

// GlobalAddr resolves a guest global's address (attacker knows the layout;
// ASLR is assumed leaked, as in the paper's threat model).
func (e *Env) GlobalAddr(name string) uint64 {
	g := e.P.Machine.Prog.GlobalByName(name)
	if g == nil {
		panic("attacks: no global " + name)
	}
	return g.Addr
}

// FuncEntry resolves a function's entry address.
func (e *Env) FuncEntry(name string) uint64 {
	f := e.P.Machine.Prog.Func(name)
	if f == nil {
		panic("attacks: no function " + name)
	}
	return f.Base
}

// CallsiteRet returns the return address of the first direct call to
// target inside caller — the value a forged stack frame needs to look
// legitimate (the attacker reads it from the leaked binary).
func (e *Env) CallsiteRet(caller, target string) uint64 {
	f := e.P.Machine.Prog.Func(caller)
	if f == nil {
		panic("attacks: no function " + caller)
	}
	for i := range f.Code {
		in := &f.Code[i]
		if in.Kind == ir.Call && in.Sym == target {
			return f.InstrAddr(i + 1)
		}
	}
	panic("attacks: no callsite of " + target + " in " + caller)
}

// W performs the attacker's arbitrary 8-byte write.
func (e *Env) W(addr, v uint64) {
	if err := e.P.Machine.Mem.WriteUint(addr, v, 8); err != nil {
		e.LastErr = err
	}
}

// WB writes attacker bytes.
func (e *Env) WB(addr uint64, b []byte) {
	if err := e.P.Machine.Mem.Write(addr, b); err != nil {
		e.LastErr = err
	}
}

// R performs the attacker's arbitrary read.
func (e *Env) R(addr uint64) uint64 {
	v, err := e.P.Machine.Mem.ReadUint(addr, 8)
	if err != nil {
		e.LastErr = err
	}
	return v
}

// PlantString writes a NUL-terminated attacker string.
func (e *Env) PlantString(addr uint64, s string) {
	e.WB(addr, append([]byte(s), 0))
}

// Hook arms a breakpoint in the guest.
func (e *Env) Hook(fn string, idx int, h vm.Hook) {
	if err := e.P.Machine.HookFunc(fn, idx, h); err != nil {
		panic(err)
	}
}

// MarkEvents snapshots the kernel event log; goal checks consider only
// events after the mark, so init-phase activity never counts as success.
func (e *Env) MarkEvents() { e.eventMark = len(e.P.Proc.Events) }

// EventSince reports whether a matching kernel event occurred after the
// mark.
func (e *Env) EventSince(kind kernel.EventKind, substr string) bool {
	for _, ev := range e.P.Proc.Events[e.eventMark:] {
		if ev.Kind == kind && (substr == "" || bytes.Contains([]byte(ev.Detail), []byte(substr))) {
			return true
		}
	}
	return false
}

// HijackReturn overwrites the *current* frame's saved rbp / return address
// from inside a hook: the memory-corruption step of a ROP chain.
func HijackReturn(m *vm.Machine, newRBP, newRet uint64) error {
	if err := m.Mem.WriteUint(m.RBP(), newRBP, 8); err != nil {
		return err
	}
	return m.Mem.WriteUint(m.RBP()+8, newRet, 8)
}

// Scenario is one Table 6 attack.
type Scenario struct {
	ID       string
	Name     string
	Category string // "rop", "direct", "indirect", "ordering"
	Ref      string // the paper's citation
	App      string // nginx | sqlite | vsftpd | apache

	// Expected Table 6 verdicts: does each context block the attack?
	BlockCT, BlockCF, BlockAI bool
	// BlockSF: does the syscall-flow context, alone, block the attack?
	// True whenever the first attacker-caused sensitive syscall lands
	// outside the application's derived transition graph — which covers
	// most staged payloads (an execve after accept4 has no edge) and is
	// the only ✓ column for the "ordering" family, whose individual calls
	// are all legitimate.
	BlockSF bool

	// Goal decides completion from post-mark kernel events.
	GoalKind   kernel.EventKind
	GoalDetail string

	// Run stages the corruption and drives the application.
	Run func(e *Env)
}

// Outcome is the observed result of one scenario under one defense.
type Outcome struct {
	Completed bool
	Killed    bool
	KilledBy  string
	Reason    string
}

// Blocked reports whether the defense stopped the attack.
func (o Outcome) Blocked() bool { return !o.Completed && o.Killed }

// InstallFixtures writes the attack goal files (the target shells and the
// apache control binary) into a kernel's filesystem. The application's
// own fixture comes from its workload target. Launch installs both; fleet
// supervisors call it on a tenant kernel before replaying a scenario
// against that tenant.
func InstallFixtures(k *kernel.Kernel) {
	k.FS.WriteFile("/bin/sh", []byte("#!"), fs.ModeRead|fs.ModeExec)
	k.FS.WriteFile("/bin/rootsh", []byte("#!"), fs.ModeRead|fs.ModeExec|fs.ModeSetUID)
	k.FS.WriteFile("/usr/bin/apachectl", []byte{0x7f}, fs.ModeRead|fs.ModeExec)
}

// Adopt wraps a protected guest that t brought up (Fixture, launch, Init)
// in an attack environment, so a scenario runs against it in place: the
// scenarios reach the server through t's listen fd and, for sqlite, its
// first terminal connection. Launch and the fleet supervisor's
// malicious-tenant injection both adopt their guests through it.
func Adopt(p *core.Protected, t workload.Target) *Env {
	env := &Env{App: t.Name(), P: p}
	if s, ok := t.(interface{ ListenFD() uint64 }); ok {
		env.listenFD = s.ListenFD()
	}
	if s, ok := t.(*workload.SQLite); ok {
		env.Conn, env.clientFD = s.Terminal(0)
	}
	env.MarkEvents()
	return env
}

// Replay runs one scenario against an adopted environment and reports the
// outcome, exactly as Execute decides it for a freshly-launched guest.
func Replay(s Scenario, env *Env) Outcome {
	s.Run(env)
	return outcomeOf(s, env)
}

// BuildApp returns a fresh, uncompiled program for one of the catalog
// applications: a workload target's, or the attack-only apache.
func BuildApp(app string) (*ir.Program, error) {
	if app == "apache" {
		return buildApache(), nil
	}
	t, err := workload.NewTarget(app)
	if err != nil {
		return nil, err
	}
	return t.Build(), nil
}

// Launch builds, compiles, and starts the scenario's application under the
// given defense, returning an attack environment with the app initialized
// as its workload target initializes it.
func Launch(app string, d Defense) (*Env, error) {
	prog, err := BuildApp(app)
	if err != nil {
		return nil, err
	}
	art, err := core.Compile(prog, core.CompileOptions{})
	if err != nil {
		return nil, err
	}
	return LaunchArtifact(app, art, d)
}

// LaunchArtifact starts an already-compiled artifact of the named
// application under the given defense. Launch is Compile + LaunchArtifact;
// the binary-only replay suite calls this directly to run a scenario's
// program under an *extracted* policy artifact instead of the compiler's.
func LaunchArtifact(app string, art *core.Artifact, d Defense) (*Env, error) {
	return launchArtifact(app, art, d)
}

// launchArtifact is LaunchArtifact with extra machine options, applied
// after the defense's own.
func launchArtifact(app string, art *core.Artifact, d Defense, extra ...vm.Option) (*Env, error) {
	k := kernel.New(nil)
	InstallFixtures(k)
	var target workload.Target
	if app != "apache" {
		t, err := workload.NewTarget(app)
		if err != nil {
			return nil, err
		}
		if err := t.Fixture(k); err != nil {
			return nil, err
		}
		target = t
	}
	// Every defense launches art's program (Launch's is the instrumented
	// one), so gadget and callsite addresses are the same under each.
	prot, err := d.Launch(art, k, append([]vm.Option{vm.WithMaxSteps(1 << 24)}, extra...)...)
	if err != nil {
		return nil, err
	}
	// Application initialization (legitimate phase).
	if target == nil {
		if _, err := prot.Machine.CallFunction("ap_init"); err != nil {
			return nil, fmt.Errorf("attacks: apache init: %w", err)
		}
		env := &Env{App: app, P: prot}
		env.MarkEvents()
		return env, nil
	}
	if err := target.Init(prot); err != nil {
		return nil, fmt.Errorf("attacks: %s init: %w", app, err)
	}
	return Adopt(prot, target), nil
}

// Execute runs one scenario under one defense.
func Execute(s Scenario, d Defense) (Outcome, error) {
	out, _, err := ExecuteEnv(s, d)
	return out, err
}

// ExecuteEnv runs one scenario under one defense and also returns the
// attack environment, giving callers (the differential test suite) access
// to the monitor's recorded violations.
func ExecuteEnv(s Scenario, d Defense) (Outcome, *Env, error) {
	env, err := Launch(s.App, d)
	if err != nil {
		return Outcome{}, nil, err
	}
	s.Run(env)
	return outcomeOf(s, env), env, nil
}

// outcomeOf decides a scenario's outcome from the environment's observed
// state: goal events for completion, the recorded guest error for kills.
func outcomeOf(s Scenario, env *Env) Outcome {
	out := Outcome{Completed: env.EventSince(s.GoalKind, s.GoalDetail)}
	var ke *vm.KillError
	if errors.As(env.LastErr, &ke) {
		out.Killed = true
		out.KilledBy = ke.By
		out.Reason = ke.Reason
	} else if env.LastErr != nil {
		var cf *vm.ControlFault
		if errors.As(env.LastErr, &cf) {
			out.KilledBy = "fault"
			out.Reason = cf.Why
		}
	}
	return out
}

// Verdict evaluates a scenario's Table 6 row: whether each context, run in
// isolation, blocks the attack.
type Verdict struct {
	Scenario       Scenario
	CT, CF, AI, SF bool
	// FullBlocked: all three contexts together stop the attack.
	FullBlocked bool
	// BaselineCompleted: the attack reaches its goal unprotected.
	BaselineCompleted bool
}

// Evaluate computes the verdict for one scenario.
func Evaluate(s Scenario) (Verdict, error) {
	v := Verdict{Scenario: s}
	base, err := Execute(s, DefNone)
	if err != nil {
		return v, err
	}
	v.BaselineCompleted = base.Completed
	for _, d := range []struct {
		def Defense
		dst *bool
	}{
		{DefCT, &v.CT}, {DefCF, &v.CF}, {DefAI, &v.AI}, {DefSF, &v.SF},
	} {
		out, err := Execute(s, d.def)
		if err != nil {
			return v, err
		}
		*d.dst = out.Blocked()
	}
	full, err := Execute(s, DefAll)
	if err != nil {
		return v, err
	}
	v.FullBlocked = full.Blocked()
	return v, nil
}

// ComparisonRow is one attack's outcome across every defense — the
// expanded form of the paper's §10 comparisons.
type ComparisonRow struct {
	Scenario Scenario
	// Blocked maps defense name to whether it stopped the attack.
	Blocked map[string]bool
	// KilledBy maps defense name to the terminating component.
	KilledBy map[string]string
}

// CompareDefenses runs the given scenarios against every defense in
// Defenses.
func CompareDefenses(ids []string) ([]ComparisonRow, error) {
	var rows []ComparisonRow
	for _, id := range ids {
		s, ok := ByID(id)
		if !ok {
			return nil, fmt.Errorf("attacks: unknown scenario %q", id)
		}
		row := ComparisonRow{Scenario: s, Blocked: map[string]bool{}, KilledBy: map[string]string{}}
		for _, d := range Defenses {
			out, err := Execute(s, d)
			if err != nil {
				return nil, fmt.Errorf("%s under %s: %w", id, d.Name, err)
			}
			row.Blocked[d.Name] = out.Blocked()
			row.KilledBy[d.Name] = out.KilledBy
		}
		rows = append(rows, row)
	}
	return rows, nil
}
