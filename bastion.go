// Package bastion is the public API of the BASTION reproduction: a
// from-scratch implementation of "Protect the System Call, Protect (Most
// of) the World with BASTION" (ASPLOS 2023) over a simulated substrate.
//
// BASTION enforces System Call Integrity on a protected program through
// three contexts, checked by a runtime monitor at every sensitive system
// call invocation:
//
//   - Call-Type: the system call may only be invoked the way the program
//     invokes it (directly, indirectly, or not at all).
//   - Control-Flow: the runtime stack that reached the call must follow
//     the statically derived callee→caller relations.
//   - Argument-Integrity: every argument must match its compiler-traced
//     legitimate value held in shadow memory.
//
// The pipeline mirrors the paper: Compile runs the analysis/instrumentation
// pass over a guest program and emits context metadata; Launch starts the
// program on a simulated kernel with the monitor attached (seccomp-BPF
// filter + ptrace-style state fetching). Guest programs are written in a
// small IR (package-level re-exports below) against a libc-like wrapper
// layer; three full applications (an NGINX-, SQLite-, and vsFTPd-analog)
// ship in internal/apps and back the paper's evaluation.
//
// A minimal protected program:
//
//	p := bastion.NewGuestProgram()            // libc wrappers preloaded
//	b := bastion.NewBuilder("main", 0)
//	... build guest code ...
//	p.AddFunc(b.Build())
//	art, _ := bastion.Compile(p, bastion.CompileOptions{})
//	k := bastion.NewKernel()
//	prot, _ := bastion.Launch(art, k, bastion.DefaultMonitorConfig())
//	prot.Machine.CallFunction("main")
package bastion

import (
	"bastion/internal/apps/guestlibc"
	"bastion/internal/apps/nginx"
	"bastion/internal/apps/sqlitedb"
	"bastion/internal/apps/vsftpd"
	"bastion/internal/attacks"
	"bastion/internal/bench"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// --- IR surface for building guest programs ---

// Program is a guest program under construction or compiled.
type Program = ir.Program

// Builder assembles one guest function.
type Builder = ir.Builder

// Operand is an instruction operand (register or immediate).
type Operand = ir.Operand

// Reg names a virtual register.
type Reg = ir.Reg

// Global declares a guest global variable.
type Global = ir.Global

// R wraps a register as an operand.
func R(r Reg) Operand { return ir.R(r) }

// Imm wraps an immediate as an operand.
func Imm(v int64) Operand { return ir.Imm(v) }

// Binary operators for Builder.Bin.
const (
	OpAdd = ir.OpAdd
	OpSub = ir.OpSub
	OpMul = ir.OpMul
	OpDiv = ir.OpDiv
	OpMod = ir.OpMod
	OpAnd = ir.OpAnd
	OpOr  = ir.OpOr
	OpXor = ir.OpXor
	OpShl = ir.OpShl
	OpShr = ir.OpShr
	OpEq  = ir.OpEq
	OpNe  = ir.OpNe
	OpLt  = ir.OpLt
	OpLe  = ir.OpLe
	OpGt  = ir.OpGt
	OpGe  = ir.OpGe
)

// NewProgram returns an empty guest program (no libc).
func NewProgram() *Program { return ir.NewProgram() }

// NewGuestProgram returns a program preloaded with the libc-like system
// call wrappers and string helpers every application starts from.
func NewGuestProgram() *Program { return guestlibc.NewProgram() }

// NewBuilder starts a guest function with the given parameter count.
func NewBuilder(name string, params int) *Builder { return ir.NewBuilder(name, params) }

// --- Compilation ---

// Artifact is a compiled, instrumented program plus its context metadata.
type Artifact = core.Artifact

// CompileOptions configures compilation.
type CompileOptions = core.CompileOptions

// Compile runs the BASTION compiler pass: call-type classification,
// control-flow graph extraction, argument-integrity analysis, and
// instrumentation (§6 of the paper).
func Compile(p *Program, opts CompileOptions) (*Artifact, error) { return core.Compile(p, opts) }

// SensitiveSyscalls is Table 1's default protected set.
func SensitiveSyscalls() []uint32 {
	out := make([]uint32, len(kernel.SensitiveSyscalls))
	copy(out, kernel.SensitiveSyscalls)
	return out
}

// --- Launching ---

// Kernel is the simulated operating system.
type Kernel = kernel.Kernel

// Protected is a launched guest with (optionally) an attached monitor.
type Protected = core.Protected

// Machine is the guest virtual machine.
type Machine = vm.Machine

// MonitorConfig selects enforcement contexts and monitor behavior.
type MonitorConfig = monitor.Config

// Context is a bitmask of enforcement contexts.
type Context = monitor.Context

// Enforcement contexts.
const (
	CallType     = monitor.CallType
	ControlFlow  = monitor.ControlFlow
	ArgIntegrity = monitor.ArgIntegrity
	AllContexts  = monitor.AllContexts
)

// NewKernel creates a kernel with an empty filesystem and network stack.
func NewKernel() *Kernel { return kernel.New(nil) }

// DefaultMonitorConfig enables all three contexts with the paper's
// accept/accept4 fast path.
func DefaultMonitorConfig() MonitorConfig { return monitor.DefaultConfig() }

// Launch starts a compiled artifact under the monitor (§7.1).
func Launch(a *Artifact, k *Kernel, cfg MonitorConfig, opts ...vm.Option) (*Protected, error) {
	return core.Launch(a, k, cfg, opts...)
}

// LaunchUnprotected starts the artifact with no filter and no monitor —
// the evaluation's vanilla baseline.
func LaunchUnprotected(a *Artifact, k *Kernel, opts ...vm.Option) (*Protected, error) {
	return core.LaunchUnprotected(a, k, opts...)
}

// WithMaxSteps bounds guest execution (runaway protection).
func WithMaxSteps(n uint64) vm.Option { return vm.WithMaxSteps(n) }

// --- Evaluation applications ---

// BuildNginx assembles the paper's NGINX-analog web server.
func BuildNginx() *Program { return nginx.Build() }

// BuildSQLite assembles the SQLite-analog transactional database.
func BuildSQLite() *Program { return sqlitedb.Build() }

// BuildVsftpd assembles the vsFTPd-analog FTP server.
func BuildVsftpd() *Program { return vsftpd.Build() }

// --- Workloads and experiments ---

// WorkloadTarget drives one application through its paper benchmark.
type WorkloadTarget = workload.Target

// NewWorkload returns the named benchmark driver ("nginx", "sqlite",
// "vsftpd").
func NewWorkload(name string) (WorkloadTarget, error) { return workload.NewTarget(name) }

// BenchSpec describes one performance measurement.
type BenchSpec = bench.RunSpec

// Mitigation stacks for BenchSpec, in the paper's Figure 3 order.
var (
	MitVanilla = bench.MitVanilla
	MitCFI     = bench.MitCFI
	MitCET     = bench.MitCET
	MitCETCT   = bench.MitCETCT
	MitCETCTCF = bench.MitCETCTCF
	MitFull    = bench.MitFull
)

// BenchResult couples a measurement with its launch context.
type BenchResult = bench.RunResult

// RunBench executes one measurement from scratch.
func RunBench(spec BenchSpec) (*BenchResult, error) { return bench.Run(spec) }

// --- Security case studies ---

// AttackScenario is one Table 6 attack.
type AttackScenario = attacks.Scenario

// AttackVerdict is a scenario's per-context outcome.
type AttackVerdict = attacks.Verdict

// AttackCatalog returns all 36 Table 6 scenarios (the paper's 32 plus
// the syscall-ordering family).
func AttackCatalog() []AttackScenario { return attacks.Catalog() }

// EvaluateAttack runs one scenario against each context in isolation and
// the full configuration.
func EvaluateAttack(s AttackScenario) (AttackVerdict, error) { return attacks.Evaluate(s) }
