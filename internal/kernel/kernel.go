// Package kernel implements the simulated operating system beneath guest
// programs: process objects, a file-descriptor layer over the in-memory
// filesystem and loopback network stack, the x86-64 syscall dispatch, the
// seccomp-BPF attach point, and the ptrace-style tracing facility the
// BASTION monitor uses to fetch guest state.
//
// Costs: every syscall charges an entry cost, each seccomp filter charges
// per executed BPF instruction, and each ptrace operation charges a
// context-switch-scale cost to the shared clock. Table 7 of the paper —
// state fetching dominates when hot syscalls are traced — is a consequence
// of these constants, which internal/bench documents and calibrates.
package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"bastion/internal/ir"
	"bastion/internal/kernel/fs"
	"bastion/internal/kernel/netstack"
	"bastion/internal/mem"
	"bastion/internal/seccomp"
	"bastion/internal/vm"
)

// Costs holds the kernel-side cycle charges.
type Costs struct {
	SyscallEntry   uint64 // ring transition + dispatch
	KernelOp       uint64 // baseline work of a syscall body
	BPFInsn        uint64 // one cBPF instruction in the seccomp filter
	GetRegs        uint64 // PTRACE_GETREGS
	ReadMemBase    uint64 // process_vm_readv fixed cost
	ReadMemPerWord uint64 // process_vm_readv per 8 copied bytes
	IOPerByte      uint64 // modeled I/O + protocol work per byte moved
}

// DefaultCosts returns the calibrated kernel cost model.
func DefaultCosts() Costs {
	return Costs{
		SyscallEntry:   150,
		KernelOp:       220,
		BPFInsn:        2,
		GetRegs:        700,
		ReadMemBase:    2500,
		ReadMemPerWord: 2,
		IOPerByte:      2,
	}
}

// Tracer handles SECCOMP_RET_TRACE stops, as the BASTION monitor process
// does. Returning a non-nil error kills the tracee before the syscall
// executes.
type Tracer interface {
	Trap(p *Process) error
}

// EventKind classifies security-relevant kernel events. Attack scenarios
// decide success by inspecting the event log, so "the attack reached its
// goal" is observed behaviour, not a scripted flag.
type EventKind int

// Event kinds.
const (
	// EventExec: execve/execveat reached with a resolvable image.
	EventExec EventKind = iota
	// EventMemExec: a mapping became writable+executable (mprotect/mmap).
	EventMemExec
	// EventSetuid: credentials changed via setuid/setgid/setreuid.
	EventSetuid
	// EventChmod: file mode changed.
	EventChmod
	// EventClone: process/thread creation.
	EventClone
	// EventPtraceAttempt: guest invoked ptrace.
	EventPtraceAttempt
	// EventSocket: new network endpoint configured (socket/bind/listen/
	// connect).
	EventSocket
	// EventRemap: a mapping was moved/resized via mremap.
	EventRemap
)

func (k EventKind) String() string {
	switch k {
	case EventExec:
		return "exec"
	case EventMemExec:
		return "mem-exec"
	case EventSetuid:
		return "setuid"
	case EventChmod:
		return "chmod"
	case EventClone:
		return "clone"
	case EventPtraceAttempt:
		return "ptrace"
	case EventSocket:
		return "socket"
	case EventRemap:
		return "mremap"
	}
	return "event"
}

// Event is one security-relevant kernel action.
type Event struct {
	Kind   EventKind
	Nr     uint32
	Detail string
	Args   [6]uint64
}

func (e Event) String() string {
	return fmt.Sprintf("%s(%s): %s", e.Kind, Name(e.Nr), e.Detail)
}

// FD is an open file descriptor: exactly one of File, Sock, or Conn is set.
type FD struct {
	File *fs.File
	Sock *netstack.Socket
	Conn *netstack.Conn
}

// Process is a guest process as the kernel sees it.
type Process struct {
	K   *Kernel
	M   *vm.Machine
	PID int

	UID, GID int

	fds    map[int]*FD
	nextFD int

	filter []seccomp.Insn
	// verdicts memoizes, by syscall slot, the filter runs that read
	// nothing but the number and arch (see runFilter). SetSeccompFilter
	// empties it; the overflow slot is never filled.
	verdicts [NrSlots + 1]verdict
	tracer   Tracer

	brk        uint64
	mmapCursor uint64

	// stage is the staging buffer read, write, sendfile and mremap copy
	// through, reused across calls (see staging).
	stage []byte

	// Stdout collects writes to fds 1 and 2.
	Stdout bytes.Buffer

	// Events is the security-relevant action log.
	Events []Event

	// SyscallCounts counts invocations by number (Table 4 source).
	SyscallCounts Counts
	// CompletedCounts counts syscalls that passed filtering and tracing
	// and reached execution.
	CompletedCounts Counts
	// TrapCount counts monitor hooks (SECCOMP_RET_TRACE stops).
	TrapCount uint64
	// LogVerdicts counts SECCOMP_RET_LOG allows by syscall number. The
	// verdict-offload compiler emits LOG (not plain ALLOW) for decisions it
	// answers in-filter, so these counts are the kernel-side ground truth for
	// "traps avoided": each count would have been a RET_TRACE stop under
	// the pure-monitor filter.
	LogVerdicts Counts
	// MonitorCycles accumulates cycles spent inside monitor traps
	// (round-trip, ptrace fetches, checks) — the serialized portion the
	// bench's multi-worker model queues on.
	MonitorCycles uint64
	// FilterSteps accumulates executed BPF instructions.
	FilterSteps uint64

	killed bool
}

// verdict is one memoized filter run: the action it returned and the
// instructions it executed. An empty entry has steps 0, which no run has.
type verdict struct {
	action uint32
	steps  uint32
}

// Kernel is the simulated operating system. One kernel may host several
// processes, each with its own Machine and address space.
type Kernel struct {
	FS    *fs.FS
	Net   *netstack.Stack
	Clock *vm.Clock
	Costs Costs

	// Buffers, when set, seeds every process Register creates with the
	// host buffers an earlier process left there on Release. It must
	// belong to the goroutine that runs the kernel's processes.
	Buffers *Buffers

	procs   map[*vm.Machine]*Process
	nextPID int
	// last is the process of the most recent syscall: a kernel almost
	// always runs one process, so Syscall rarely consults procs.
	last *Process
}

// Buffers holds the host buffers a released process leaves for the next
// one: its staging buffer and its event-log array, both grown to what a
// process of that kind needs. Both arrive cleared, so a process seeded
// from them can never see an earlier process's bytes or events, nor keep
// its detail strings alive. Like a mem.FreeList, it belongs to one
// goroutine at a time and has no lock. The zero value is empty.
type Buffers struct {
	stage  []byte
	events []Event
}

// Cap returns the capacities Buffers holds for the next process: staging
// bytes and event-log entries.
func (b *Buffers) Cap() (stage, events int) { return cap(b.stage), cap(b.events) }

// New creates a kernel with an empty filesystem and network stack, sharing
// the given clock (pass the Machine's clock so guest and kernel time
// accumulate on one timeline).
func New(clock *vm.Clock) *Kernel {
	if clock == nil {
		clock = &vm.Clock{}
	}
	return &Kernel{
		FS:      fs.New(),
		Net:     netstack.NewStack(),
		Clock:   clock,
		Costs:   DefaultCosts(),
		procs:   map[*vm.Machine]*Process{},
		nextPID: 100,
	}
}

// Register creates the Process for a machine. The machine must have been
// built with WithOS(k) so syscalls route here.
func (k *Kernel) Register(m *vm.Machine) *Process {
	p := &Process{
		K:          k,
		M:          m,
		PID:        k.nextPID,
		fds:        map[int]*FD{},
		nextFD:     3, // 0,1,2 reserved
		brk:        0, // assigned on first brk
		mmapCursor: 0x7f00_0000_0000,
	}
	if b := k.Buffers; b != nil {
		p.stage, p.Events = b.stage, b.events
		b.stage, b.events = nil, nil
	}
	k.nextPID++
	k.procs[m] = p
	k.last = p
	return p
}

// Release clears the process's staging buffer and event log and hands
// them to the kernel's Buffers for the next Register (without Buffers it
// just drops them). Events is empty afterwards. Call it once the process
// is gone and nothing reads its Events again.
func (p *Process) Release() {
	if b := p.K.Buffers; b != nil {
		clear(p.stage[:cap(p.stage)])
		clear(p.Events[:cap(p.Events)])
		if cap(p.stage) > cap(b.stage) {
			b.stage = p.stage[:0]
		}
		if cap(p.Events) > cap(b.events) {
			b.events = p.Events[:0]
		}
	}
	p.stage, p.Events = nil, nil
}

// Process returns the process object for a machine.
func (k *Kernel) Process(m *vm.Machine) *Process { return k.procs[m] }

// SetSeccompFilter installs a validated filter program on the process
// (SECCOMP_SET_MODE_FILTER). Installing replaces any previous filter and
// starts its verdict memo empty. As on Linux, the program must not change
// once installed: the memo keeps the verdicts it gave.
func (p *Process) SetSeccompFilter(prog []seccomp.Insn) error {
	if err := seccomp.Validate(prog); err != nil {
		return err
	}
	p.filter = prog
	clear(p.verdicts[:])
	return nil
}

// SeccompFilter returns the installed filter program (nil when none),
// e.g. for offline evaluation-cost analysis.
func (p *Process) SeccompFilter() []seccomp.Insn { return p.filter }

// SetTracer attaches a tracer receiving SECCOMP_RET_TRACE stops.
func (p *Process) SetTracer(t Tracer) { p.tracer = t }

// --- tracing facility (the monitor's only view of the guest) ---

// InKernelFetch is an in-kernel monitor's register fetch (the §11.2 eBPF
// design): no tracee stop, no context switch.
const InKernelFetch = 4

// Tracee is a tracer's access to one process. Ptrace and an in-kernel
// monitor differ only in what an access costs: Fetch is the whole
// register fetch, and ReadBase the fixed cost of every memory read
// (process_vm_readv's context switch, or 0) on top of its per-word copy.
// Reads bypass page permissions, as ptrace does.
type Tracee struct {
	P        *Process
	Fetch    uint64
	ReadBase uint64
}

// Regs returns the registers latched at the current syscall stop.
func (t *Tracee) Regs() vm.Regs {
	t.P.K.Clock.Add(t.Fetch)
	return t.P.M.SysRegs
}

// Read copies len(buf) guest bytes at addr into buf as one read.
func (t *Tracee) Read(addr uint64, buf []byte) error {
	t.charge(uint64(len(buf)))
	return t.P.M.Mem.Peek(addr, buf)
}

// Uint reads a little-endian integer of size bytes (1 to 8), charged and
// faulting exactly as a Read of those bytes (Mem.PeekUint falls back to
// Peek).
func (t *Tracee) Uint(addr uint64, size int64) (uint64, error) {
	t.charge(uint64(size))
	return t.P.M.Mem.PeekUint(addr, size)
}

// Load reads one 64-bit guest word (a shadow.Loader).
func (t *Tracee) Load(addr uint64) (uint64, error) { return t.Uint(addr, 8) }

// Stream is a Read of n bytes that lends them to visit through
// Mem.PeekEach, so a digest of a guest-chosen length needs no buffer. It
// charges only the bytes visit saw, as process_vm_readv returns a short
// count at the first unmapped page: a forged length costs the bytes
// mapped contiguously from addr, not the length.
func (t *Tracee) Stream(addr, n uint64, visit func([]byte)) error {
	seen, err := t.P.M.Mem.PeekEach(addr, n, visit)
	t.charge(seen)
	return err
}

// charge charges one read of n bytes.
func (t *Tracee) charge(n uint64) {
	t.P.K.Clock.Add(t.ReadBase + t.P.K.Costs.ReadMemPerWord*(n/8+min(n%8, 1)))
}

// --- syscall dispatch ---

// Syscall implements vm.SyscallHandler: seccomp filtering, optional tracer
// stop, then execution.
func (k *Kernel) Syscall(m *vm.Machine) (int64, error) {
	p := k.last
	if p == nil || p.M != m {
		if p = k.procs[m]; p == nil {
			return 0, errors.New("kernel: syscall from unregistered machine")
		}
		k.last = p
	}
	k.Clock.Add(k.Costs.SyscallEntry)
	nr := uint32(m.SysRegs.RAX)
	s := Slot(nr)
	p.SyscallCounts[s]++

	if p.filter != nil {
		// A memo hit charges the steps its run executed, as a run would.
		v := p.verdicts[s]
		if v.steps == 0 {
			var err error
			if v, err = p.runFilter(s, nr); err != nil {
				return 0, fmt.Errorf("kernel: seccomp filter fault: %w", err)
			}
		}
		p.FilterSteps += uint64(v.steps)
		k.Clock.Add(k.Costs.BPFInsn * uint64(v.steps))
		action := v.action
		switch action & seccomp.RetActionMask {
		case seccomp.RetAllow:
			// proceed
		case seccomp.RetLog:
			// proceed, but audit-log the in-filter verdict
			p.LogVerdicts[s]++
		case seccomp.RetErrno:
			return -int64(action & seccomp.RetDataMask), nil
		case seccomp.RetTrace:
			if p.tracer == nil {
				return -int64(ENOSYS), nil
			}
			p.TrapCount++
			before := k.Clock.Cycles
			err := p.tracer.Trap(p)
			p.MonitorCycles += k.Clock.Cycles - before
			if err != nil {
				p.killed = true
				return 0, err
			}
		default:
			// KILL, TRAP, and any action the kernel does not know, such
			// as USER_NOTIF or a `ret A` of a loaded word: Linux's
			// __seccomp_filter kills in its default case too.
			p.killed = true
			return 0, &vm.KillError{By: "seccomp", Reason: "filter returned " + seccomp.ActionName(action) + " for " + Name(nr)}
		}
	}
	k.Clock.Add(k.Costs.KernelOp)
	p.CompletedCounts[s]++
	return p.execute(nr)
}

// runFilter runs the installed filter on the syscall latched in
// p.M.SysRegs, whose number nr has slot s. A run that read nothing but
// the number and arch is kept in the slot's memo entry, so later calls of
// nr skip seccomp_data and the interpreter until the next
// SetSeccompFilter. A run that read an argument or the IP, a failed run
// and any number of the overflow slot, which pools every unimplemented
// number, are never kept.
func (p *Process) runFilter(s int, nr uint32) (verdict, error) {
	r := &p.M.SysRegs
	data := seccomp.Data{
		Nr:   nr,
		Arch: seccomp.AuditArchX86_64,
		IP:   r.RIP,
		Args: [6]uint64{r.RDI, r.RSI, r.RDX, r.R10, r.R8, r.R9},
	}
	action, steps, byNr, err := seccomp.RunByNr(p.filter, &data)
	v := verdict{action: action, steps: uint32(steps)}
	if byNr && s < NrSlots {
		p.verdicts[s] = v
	}
	return v, err
}

// Killed reports whether the process was killed by seccomp or its tracer.
func (p *Process) Killed() bool { return p.killed }

// OpenFDs returns the number of open file descriptors (leak detection).
func (p *Process) OpenFDs() int { return len(p.fds) }

// Maps renders the process's memory map in /proc/<pid>/maps style — the
// view a monitor's symbol-recovery step reads at attach time.
func (p *Process) Maps() string {
	var b strings.Builder
	for _, r := range p.M.Mem.Regions() {
		kind := ""
		switch {
		case r.Addr >= ir.ShadowBase && r.Addr < ir.ShadowBase+ir.ShadowSize:
			kind = "[shadow]"
		case r.Addr >= ir.StackTop-ir.StackSize && r.Addr < ir.StackTop:
			kind = "[stack]"
		case r.Addr >= ir.DataBase && r.Addr < ir.HeapBase:
			kind = "[data]"
		case r.Addr >= 0x7f00_0000_0000 && r.Addr < ir.StackTop-ir.StackSize:
			kind = "[anon]"
		case r.Addr >= ir.HeapBase && r.Addr < ir.ShadowBase:
			kind = "[heap]"
		}
		fmt.Fprintf(&b, "%012x-%012x %s %s\n", r.Addr, r.Addr+r.Size, r.Perm, kind)
	}
	return b.String()
}

func (p *Process) execute(nr uint32) (int64, error) {
	r := &p.M.SysRegs
	switch nr {
	case SysRead:
		return p.sysRead(int(int64(r.RDI)), r.RSI, r.RDX)
	case SysWrite, SysSendto:
		return p.sysWrite(int(int64(r.RDI)), r.RSI, r.RDX)
	case SysRecvfrom:
		return p.sysRead(int(int64(r.RDI)), r.RSI, r.RDX)
	case SysOpen:
		return p.sysOpen(r.RDI, r.RSI, r.RDX)
	case SysOpenat:
		return p.sysOpen(r.RSI, r.RDX, r.R10) // dirfd ignored (absolute paths)
	case SysClose:
		return p.sysClose(int(int64(r.RDI)))
	case SysStat:
		return p.sysStat(r.RDI, r.RSI)
	case SysFstat:
		return p.sysFstat(int(int64(r.RDI)), r.RSI)
	case SysLseek:
		return p.sysLseek(int(int64(r.RDI)), int64(r.RSI), int(r.RDX))
	case SysMmap:
		return p.sysMmap(r.RDI, r.RSI, r.RDX, r.R10, int(int64(r.R8)), r.R9)
	case SysMprotect:
		return p.sysMprotect(r.RDI, r.RSI, r.RDX)
	case SysMunmap:
		return p.sysMunmap(r.RDI, r.RSI)
	case SysBrk:
		return p.sysBrk(r.RDI)
	case SysMremap:
		return p.sysMremap(r.RDI, r.RSI, r.RDX)
	case SysRemapFilePages:
		return -int64(ENOSYS), nil
	case SysGetpid:
		return int64(p.PID), nil
	case SysSendfile:
		return p.sysSendfile(int(int64(r.RDI)), int(int64(r.RSI)), r.RDX, r.R10)
	case SysSocket:
		return p.sysSocket()
	case SysBind:
		return p.sysBind(int(int64(r.RDI)), r.RSI, r.RDX)
	case SysListen:
		return p.sysListen(int(int64(r.RDI)), int(int64(r.RSI)))
	case SysAccept, SysAccept4:
		return p.sysAccept(int(int64(r.RDI)), r.RSI, r.RDX)
	case SysConnect:
		return p.sysConnect(int(int64(r.RDI)), r.RSI, r.RDX)
	case SysClone, SysFork, SysVfork:
		p.event(EventClone, nr, "spawned child")
		child := p.K.nextPID
		p.K.nextPID++
		return int64(child), nil
	case SysExecve, SysExecveat:
		return p.sysExecve(nr)
	case SysChmod:
		return p.sysChmod(r.RDI, r.RSI)
	case SysPtrace:
		p.event(EventPtraceAttempt, nr, "ptrace requested")
		return -int64(EPERM), nil
	case SysSetuid:
		return p.sysSetuid(int(int64(r.RDI)))
	case SysSetgid:
		p.event(EventSetuid, nr, fmt.Sprintf("gid %d -> %d", p.GID, int(int64(r.RDI))))
		p.GID = int(int64(r.RDI))
		return 0, nil
	case SysSetreuid:
		return p.sysSetreuid(int(int64(r.RDI)), int(int64(r.RSI)))
	case SysExit, SysExitGroup:
		return 0, &vm.ExitError{Code: int64(r.RDI)}
	}
	return -int64(ENOSYS), nil
}

func (p *Process) event(kind EventKind, nr uint32, detail string) {
	r := &p.M.SysRegs
	p.Events = append(p.Events, Event{
		Kind: kind, Nr: nr, Detail: detail,
		Args: [6]uint64{r.RDI, r.RSI, r.RDX, r.R10, r.R8, r.R9},
	})
}

// HasEvent reports whether an event of the kind with a detail containing
// substr was logged.
func (p *Process) HasEvent(kind EventKind, substr string) bool {
	for _, e := range p.Events {
		if e.Kind == kind && (substr == "" || bytes.Contains([]byte(e.Detail), []byte(substr))) {
			return true
		}
	}
	return false
}

func (p *Process) allocFD(fd *FD) int64 {
	n := p.nextFD
	p.nextFD++
	p.fds[n] = fd
	return int64(n)
}

func (p *Process) fd(n int) *FD { return p.fds[n] }

// --- file syscalls ---

// maxIO clamps the byte count of one read, write or sendfile.
const maxIO = 1 << 20

// staging returns the process's staging buffer sized to count, clamped to
// maxIO. It holds stale bytes from earlier calls: a caller passes on only
// the prefix that a read or a Peek has just filled, never more.
func (p *Process) staging(count uint64) []byte {
	count = min(count, maxIO)
	if uint64(cap(p.stage)) < count {
		p.stage = make([]byte, count)
	}
	return p.stage[:count]
}

func (p *Process) sysRead(fd int, buf uint64, count uint64) (int64, error) {
	d := p.fd(fd)
	tmp := p.staging(count)
	var n int
	var err error
	switch {
	case fd == 0:
		return 0, nil // stdin: EOF
	case d == nil:
		return -int64(EBADF), nil
	case d.File != nil:
		n, err = d.File.Read(tmp)
	case d.Conn != nil:
		n, err = netstack.ServerRead(d.Conn, tmp)
		if errors.Is(err, netstack.ErrWouldBlock) {
			return -int64(EAGAIN), nil
		}
	default:
		return -int64(EBADF), nil
	}
	if err != nil {
		return -int64(EACCES), nil
	}
	if n > 0 {
		if perr := p.M.Mem.Poke(buf, tmp[:n]); perr != nil {
			return -int64(EFAULT), nil
		}
	}
	p.K.Clock.Add(p.K.Costs.IOPerByte * uint64(n))
	return int64(n), nil
}

func (p *Process) sysWrite(fd int, buf uint64, count uint64) (int64, error) {
	tmp := p.staging(count)
	count = uint64(len(tmp))
	if err := p.M.Mem.Peek(buf, tmp); err != nil {
		return -int64(EFAULT), nil
	}
	d := p.fd(fd)
	p.K.Clock.Add(p.K.Costs.IOPerByte * count)
	switch {
	case fd == 1 || fd == 2:
		p.Stdout.Write(tmp)
		return int64(count), nil
	case d == nil:
		return -int64(EBADF), nil
	case d.File != nil:
		n, err := d.File.Write(tmp)
		if err != nil {
			return -int64(EACCES), nil
		}
		return int64(n), nil
	case d.Conn != nil:
		n, err := netstack.ServerWrite(d.Conn, tmp)
		if err != nil {
			return -int64(EPERM), nil
		}
		return int64(n), nil
	}
	return -int64(EBADF), nil
}

func (p *Process) sysOpen(pathPtr, flags, mode uint64) (int64, error) {
	path, err := p.M.Mem.ReadCString(pathPtr, 4096)
	if err != nil {
		return -int64(EFAULT), nil
	}
	f, err := p.K.FS.Open(path, int(flags), fs.Mode(mode))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return -int64(ENOENT), nil
	case errors.Is(err, fs.ErrPerm):
		return -int64(EACCES), nil
	case errors.Is(err, fs.ErrIsDir):
		return -int64(EISDIR), nil
	case err != nil:
		return -int64(EINVAL), nil
	}
	return p.allocFD(&FD{File: f}), nil
}

func (p *Process) sysClose(fd int) (int64, error) {
	d := p.fd(fd)
	if d == nil {
		return -int64(EBADF), nil
	}
	if d.Conn != nil {
		d.Conn.Close()
	}
	delete(p.fds, fd)
	return 0, nil
}

// statSizeOffset is where st_size lives in struct stat on x86-64.
const statSizeOffset = 48

func (p *Process) sysStat(pathPtr, statPtr uint64) (int64, error) {
	path, err := p.M.Mem.ReadCString(pathPtr, 4096)
	if err != nil {
		return -int64(EFAULT), nil
	}
	st, err := p.K.FS.Stat(path)
	if err != nil {
		return -int64(ENOENT), nil
	}
	return p.writeStat(statPtr, st.Size, uint64(st.Mode))
}

func (p *Process) sysFstat(fd int, statPtr uint64) (int64, error) {
	d := p.fd(fd)
	if d == nil || d.File == nil {
		return -int64(EBADF), nil
	}
	return p.writeStat(statPtr, d.File.Size(), uint64(d.File.Mode()))
}

func (p *Process) writeStat(statPtr uint64, size int64, mode uint64) (int64, error) {
	if err := p.M.Mem.PokeUint(statPtr+statSizeOffset, uint64(size), 8); err != nil {
		return -int64(EFAULT), nil
	}
	if err := p.M.Mem.PokeUint(statPtr+24, mode, 4); err != nil { // st_mode offset
		return -int64(EFAULT), nil
	}
	return 0, nil
}

func (p *Process) sysLseek(fd int, off int64, whence int) (int64, error) {
	d := p.fd(fd)
	if d == nil || d.File == nil {
		return -int64(EBADF), nil
	}
	n, err := d.File.Seek(off, whence)
	if err != nil {
		return -int64(EINVAL), nil
	}
	return n, nil
}

func (p *Process) sysSendfile(outFD, inFD int, offPtr, count uint64) (int64, error) {
	out, in := p.fd(outFD), p.fd(inFD)
	if out == nil || in == nil || in.File == nil {
		return -int64(EBADF), nil
	}
	tmp := p.staging(count)
	n, err := in.File.Read(tmp)
	if err != nil {
		return -int64(EACCES), nil
	}
	tmp = tmp[:n]
	switch {
	case out.Conn != nil:
		if _, err := netstack.ServerWrite(out.Conn, tmp); err != nil {
			return -int64(EPERM), nil
		}
	case out.File != nil:
		if _, err := out.File.Write(tmp); err != nil {
			return -int64(EACCES), nil
		}
	case outFD == 1 || outFD == 2:
		p.Stdout.Write(tmp)
	default:
		return -int64(EBADF), nil
	}
	p.K.Clock.Add(p.K.Costs.IOPerByte * uint64(n))
	return int64(n), nil
}

func (p *Process) sysChmod(pathPtr, mode uint64) (int64, error) {
	path, err := p.M.Mem.ReadCString(pathPtr, 4096)
	if err != nil {
		return -int64(EFAULT), nil
	}
	if err := p.K.FS.Chmod(path, fs.Mode(mode)); err != nil {
		return -int64(ENOENT), nil
	}
	p.event(EventChmod, SysChmod, fmt.Sprintf("chmod %s to %o", path, mode))
	return 0, nil
}

// --- memory syscalls ---

func protToPerm(prot uint64) mem.Perm {
	var perm mem.Perm
	if prot&ProtRead != 0 {
		perm |= mem.PermRead
	}
	if prot&ProtWrite != 0 {
		perm |= mem.PermWrite
	}
	if prot&ProtExec != 0 {
		perm |= mem.PermExec
	}
	return perm
}

func (p *Process) sysMmap(addr, length, prot, flags uint64, fd int, off uint64) (int64, error) {
	if length == 0 {
		return -int64(EINVAL), nil
	}
	if flags&MapAnonymous == 0 || fd != -1 {
		return -int64(ENOSYS), nil // file-backed mappings unimplemented
	}
	length = mem.RoundUp(length)
	fixed := addr != 0 && flags&MapFixed != 0
	if !fixed {
		addr = p.mmapCursor
	}
	if addr%mem.PageSize != 0 {
		return -int64(EINVAL), nil
	}
	// Fresh anonymous pages are zeroed.
	if err := p.M.Mem.Unmap(addr, length); err != nil {
		return -int64(EINVAL), nil
	}
	if err := p.M.Mem.Map(addr, length, protToPerm(prot)); err != nil {
		return -int64(ENOMEM), nil
	}
	if !fixed {
		p.mmapCursor += length + mem.PageSize // guard gap
	}
	if prot&ProtWrite != 0 && prot&ProtExec != 0 {
		p.event(EventMemExec, SysMmap, fmt.Sprintf("mmap W+X at %#x (+%d)", addr, length))
	}
	return int64(addr), nil
}

func (p *Process) sysMprotect(addr, length, prot uint64) (int64, error) {
	if err := p.M.Mem.Protect(addr, length, protToPerm(prot)); err != nil {
		return -int64(ENOMEM), nil
	}
	if prot&ProtExec != 0 {
		detail := fmt.Sprintf("mprotect exec at %#x (+%d)", addr, length)
		if prot&ProtWrite != 0 {
			detail = fmt.Sprintf("mprotect W+X at %#x (+%d)", addr, length)
		}
		p.event(EventMemExec, SysMprotect, detail)
	}
	return 0, nil
}

func (p *Process) sysMunmap(addr, length uint64) (int64, error) {
	if err := p.M.Mem.Unmap(addr, length); err != nil {
		return -int64(EINVAL), nil
	}
	return 0, nil
}

func (p *Process) sysBrk(addr uint64) (int64, error) {
	const heapStart = 0x1000_0000 // ir.HeapBase
	if p.brk == 0 {
		p.brk = heapStart
	}
	if addr == 0 {
		return int64(p.brk), nil
	}
	newBrk := mem.RoundUp(addr)
	if addr < heapStart || newBrk < addr { // below the heap, or wraps
		return int64(p.brk), nil
	}
	if newBrk > p.brk {
		if err := p.M.Mem.Map(p.brk, newBrk-p.brk, mem.PermRW); err != nil {
			return int64(p.brk), nil
		}
	}
	p.brk = newBrk
	return int64(p.brk), nil
}

func (p *Process) sysMremap(oldAddr, oldSize, newSize uint64) (int64, error) {
	if oldSize == 0 || newSize == 0 {
		return -int64(EINVAL), nil
	}
	oldSize, newSize = mem.RoundUp(oldSize), mem.RoundUp(newSize)
	perm, ok := p.M.Mem.PermAt(oldAddr)
	if !ok {
		return -int64(EFAULT), nil
	}
	newAddr := p.mmapCursor
	if err := p.M.Mem.Map(newAddr, newSize, perm); err != nil {
		return -int64(ENOMEM), nil
	}
	p.mmapCursor += newSize + mem.PageSize
	// Copy through the staging buffer, at most maxIO bytes at a time, so a
	// guest-chosen oldSize cannot size a host allocation.
	n := min(oldSize, newSize)
	for done := uint64(0); done < n; {
		tmp := p.staging(n - done)
		if err := p.M.Mem.Peek(oldAddr+done, tmp); err != nil {
			return -int64(EFAULT), nil
		}
		if err := p.M.Mem.Poke(newAddr+done, tmp); err != nil {
			return -int64(EFAULT), nil
		}
		done += uint64(len(tmp))
	}
	if err := p.M.Mem.Unmap(oldAddr, oldSize); err != nil {
		return -int64(EINVAL), nil
	}
	p.event(EventRemap, SysMremap, fmt.Sprintf("mremap %#x -> %#x (+%d)", oldAddr, newAddr, newSize))
	return int64(newAddr), nil
}

// --- network syscalls ---

func (p *Process) sysSocket() (int64, error) {
	sk := p.K.Net.NewSocket()
	p.event(EventSocket, SysSocket, "socket created")
	return p.allocFD(&FD{Sock: sk}), nil
}

// sockaddr layout: sa_family uint16 at +0, port big-endian uint16 at +2
// (struct sockaddr_in).
func (p *Process) readSockaddrPort(addrPtr uint64) (uint16, bool) {
	hi, err := p.M.Mem.PeekUint(addrPtr+2, 1)
	if err != nil {
		return 0, false
	}
	lo, err := p.M.Mem.PeekUint(addrPtr+3, 1)
	if err != nil {
		return 0, false
	}
	return uint16(hi<<8 | lo), true
}

func (p *Process) sysBind(fd int, addrPtr, addrLen uint64) (int64, error) {
	d := p.fd(fd)
	if d == nil || d.Sock == nil {
		return -int64(EBADF), nil
	}
	if addrLen < 4 {
		return -int64(EINVAL), nil
	}
	port, ok := p.readSockaddrPort(addrPtr)
	if !ok {
		return -int64(EFAULT), nil
	}
	if err := p.K.Net.Bind(d.Sock, port); err != nil {
		return -int64(EADDRINUSE), nil
	}
	p.event(EventSocket, SysBind, fmt.Sprintf("bound port %d", port))
	return 0, nil
}

func (p *Process) sysListen(fd, backlog int) (int64, error) {
	d := p.fd(fd)
	if d == nil || d.Sock == nil {
		return -int64(EBADF), nil
	}
	if err := p.K.Net.Listen(d.Sock, backlog); err != nil {
		return -int64(EINVAL), nil
	}
	p.event(EventSocket, SysListen, fmt.Sprintf("listening on port %d", d.Sock.Port))
	return 0, nil
}

func (p *Process) sysAccept(fd int, addrPtr, lenPtr uint64) (int64, error) {
	d := p.fd(fd)
	if d == nil || d.Sock == nil {
		return -int64(EBADF), nil
	}
	conn, err := p.K.Net.Accept(d.Sock)
	if errors.Is(err, netstack.ErrWouldBlock) {
		return -int64(EAGAIN), nil
	}
	if err != nil {
		return -int64(EINVAL), nil
	}
	if addrPtr != 0 {
		// Fill in the peer sockaddr: family AF_INET, remote port.
		if p.M.Mem.PokeUint(addrPtr, 2 /* AF_INET */, 2) != nil ||
			p.M.Mem.PokeUint(addrPtr+2, uint64(conn.RemotePort>>8), 1) != nil ||
			p.M.Mem.PokeUint(addrPtr+3, uint64(conn.RemotePort&0xff), 1) != nil {
			return -int64(EFAULT), nil
		}
		if lenPtr != 0 && p.M.Mem.PokeUint(lenPtr, 16, 4) != nil {
			return -int64(EFAULT), nil
		}
	}
	return p.allocFD(&FD{Conn: conn}), nil
}

func (p *Process) sysConnect(fd int, addrPtr, addrLen uint64) (int64, error) {
	d := p.fd(fd)
	if d == nil || d.Sock == nil {
		return -int64(EBADF), nil
	}
	if addrLen < 4 {
		return -int64(EINVAL), nil
	}
	port, ok := p.readSockaddrPort(addrPtr)
	if !ok {
		return -int64(EFAULT), nil
	}
	conn, err := p.K.Net.Connect(d.Sock, port)
	if err != nil {
		return -int64(ECONNREFUSED), nil
	}
	d.Conn = conn
	p.event(EventSocket, SysConnect, fmt.Sprintf("connected to port %d", port))
	return 0, nil
}

// --- process / credential syscalls ---

func (p *Process) sysExecve(nr uint32) (int64, error) {
	pathPtr := p.M.SysRegs.RDI
	if nr == SysExecveat {
		pathPtr = p.M.SysRegs.RSI
	}
	path, err := p.M.Mem.ReadCString(pathPtr, 4096)
	if err != nil {
		return -int64(EFAULT), nil
	}
	st, serr := p.K.FS.Stat(path)
	if serr != nil {
		return -int64(ENOENT), nil
	}
	if st.Mode&fs.ModeExec == 0 {
		return -int64(EACCES), nil
	}
	p.event(EventExec, nr, "execve "+path)
	// A successful execve replaces the image; the simulated guest ends
	// here with the exec recorded in the event log.
	return 0, &vm.ExitError{Code: 0}
}

func (p *Process) sysSetuid(uid int) (int64, error) {
	if p.UID != 0 && uid != p.UID {
		return -int64(EPERM), nil
	}
	p.event(EventSetuid, SysSetuid, fmt.Sprintf("uid %d -> %d", p.UID, uid))
	p.UID = uid
	return 0, nil
}

func (p *Process) sysSetreuid(ruid, euid int) (int64, error) {
	if p.UID != 0 && ruid != p.UID && euid != p.UID {
		return -int64(EPERM), nil
	}
	p.event(EventSetuid, SysSetreuid, fmt.Sprintf("reuid %d/%d", ruid, euid))
	if ruid >= 0 {
		p.UID = ruid
	}
	return 0, nil
}
