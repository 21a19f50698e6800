package kernel

// x86-64 syscall numbers for the subset the simulated kernel implements.
// Values match arch/x86/entry/syscalls/syscall_64.tbl so that metadata,
// seccomp programs, and monitor rules read like their real counterparts.
const (
	SysRead           = 0
	SysWrite          = 1
	SysOpen           = 2
	SysClose          = 3
	SysStat           = 4
	SysFstat          = 5
	SysLseek          = 8
	SysMmap           = 9
	SysMprotect       = 10
	SysMunmap         = 11
	SysBrk            = 12
	SysMremap         = 25
	SysGetpid         = 39
	SysSendfile       = 40
	SysSocket         = 41
	SysConnect        = 42
	SysAccept         = 43
	SysSendto         = 44
	SysRecvfrom       = 45
	SysBind           = 49
	SysListen         = 50
	SysClone          = 56
	SysFork           = 57
	SysVfork          = 58
	SysExecve         = 59
	SysExit           = 60
	SysChmod          = 90
	SysPtrace         = 101
	SysSetuid         = 105
	SysSetgid         = 106
	SysSetreuid       = 113
	SysRemapFilePages = 216
	SysExitGroup      = 231
	SysOpenat         = 257
	SysAccept4        = 288
	SysExecveat       = 322
)

// Names maps implemented syscall numbers to their names.
var Names = map[uint32]string{
	SysRead: "read", SysWrite: "write", SysOpen: "open", SysClose: "close",
	SysStat: "stat", SysFstat: "fstat", SysLseek: "lseek", SysMmap: "mmap",
	SysMprotect: "mprotect", SysMunmap: "munmap", SysBrk: "brk",
	SysMremap: "mremap", SysGetpid: "getpid", SysSendfile: "sendfile",
	SysSocket: "socket", SysConnect: "connect", SysAccept: "accept",
	SysSendto: "sendto", SysRecvfrom: "recvfrom", SysBind: "bind",
	SysListen: "listen", SysClone: "clone", SysFork: "fork",
	SysVfork: "vfork", SysExecve: "execve", SysExit: "exit",
	SysChmod: "chmod", SysPtrace: "ptrace", SysSetuid: "setuid",
	SysSetgid: "setgid", SysSetreuid: "setreuid",
	SysRemapFilePages: "remap_file_pages", SysExitGroup: "exit_group",
	SysOpenat: "openat", SysAccept4: "accept4", SysExecveat: "execveat",
}

// NrSlots is the number of implemented syscalls. Each has a dense slot,
// its rank among Names in ascending number order; every other number
// shares the overflow slot NrSlots. Per-syscall counters and tables are
// arrays indexed by slot.
const NrSlots = 36

// slotNrs lists the implemented numbers in slot order, and slotOf maps a
// number up to the largest implemented one, SysExecveat, to its slot.
var slotNrs, slotOf = slotIndex()

func slotIndex() (nrs [NrSlots]uint32, of [SysExecveat + 1]uint8) {
	if len(Names) != NrSlots {
		panic("kernel: NrSlots does not match Names")
	}
	for i := range of {
		of[i] = NrSlots
	}
	s := 0
	for nr := range of {
		if _, ok := Names[uint32(nr)]; ok {
			nrs[s], of[nr] = uint32(nr), uint8(s)
			s++
		}
	}
	if s != NrSlots {
		panic("kernel: an implemented number is past SysExecveat")
	}
	return nrs, of
}

// Slot returns nr's slot: its rank among the implemented numbers, or
// NrSlots for any other number.
func Slot(nr uint32) int {
	if nr < uint32(len(slotOf)) {
		return int(slotOf[nr])
	}
	return NrSlots
}

// SlotNr returns the number of slot s, which must be below NrSlots.
func SlotNr(s int) uint32 { return slotNrs[s] }

// SlotName labels slot s: the syscall's name, or "other" for the overflow
// slot, which pools every unimplemented number.
func SlotName(s int) string {
	if s < NrSlots {
		return Names[slotNrs[s]]
	}
	return "other"
}

// Counts is a per-syscall counter array indexed by slot. Ranging over it
// sums every syscall exactly, unimplemented numbers included.
type Counts [NrSlots + 1]uint64

// Inc counts one invocation of nr.
func (c *Counts) Inc(nr uint32) { c[Slot(nr)]++ }

// Of returns nr's count; for an unimplemented number, the overflow slot's
// count of all of them.
func (c *Counts) Of(nr uint32) uint64 { return c[Slot(nr)] }

// Name returns the syscall's name, or a numeric fallback.
func Name(nr uint32) string {
	if n, ok := Names[nr]; ok {
		return n
	}
	return "sys_" + itoa(int(nr))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// SensitiveSyscalls is Table 1 of the paper: the 20 security-critical
// system calls BASTION protects, grouped by the attack vector that
// commonly abuses them.
var SensitiveSyscalls = []uint32{
	// Arbitrary code execution.
	SysExecve, SysExecveat, SysFork, SysVfork, SysClone, SysPtrace,
	// Memory permissions.
	SysMprotect, SysMmap, SysMremap, SysRemapFilePages,
	// Privilege escalation.
	SysChmod, SysSetuid, SysSetgid, SysSetreuid,
	// Networking.
	SysSocket, SysBind, SysConnect, SysListen, SysAccept, SysAccept4,
}

// SensitiveClass names the Table 1 classification of a sensitive syscall.
func SensitiveClass(nr uint32) string {
	switch nr {
	case SysExecve, SysExecveat, SysFork, SysVfork, SysClone, SysPtrace:
		return "Arbitrary Code Execution"
	case SysMprotect, SysMmap, SysMremap, SysRemapFilePages:
		return "Memory Permissions"
	case SysChmod, SysSetuid, SysSetgid, SysSetreuid:
		return "Privilege Escalation"
	case SysSocket, SysBind, SysConnect, SysListen, SysAccept, SysAccept4:
		return "Networking"
	}
	return ""
}

// IsSensitive reports whether nr is in Table 1's sensitive set.
func IsSensitive(nr uint32) bool { return SensitiveClass(nr) != "" }

// FileSystemSyscalls is the §11.2 extension set: file-system-related
// syscalls and variants whose protection Table 7 evaluates.
var FileSystemSyscalls = []uint32{
	SysRead, SysWrite, SysOpen, SysOpenat, SysClose, SysStat, SysFstat,
	SysLseek, SysSendfile, SysSendto, SysRecvfrom,
}

// Errno values (positive; syscalls return -errno).
const (
	EPERM        = 1
	ENOENT       = 2
	EINTR        = 4
	EBADF        = 9
	EAGAIN       = 11
	ENOMEM       = 12
	EACCES       = 13
	EFAULT       = 14
	EEXIST       = 17
	ENOTDIR      = 20
	EISDIR       = 21
	EINVAL       = 22
	ENOSYS       = 38
	EADDRINUSE   = 98
	ECONNREFUSED = 111
)

// mmap prot and flag constants (Linux values).
const (
	ProtNone  = 0x0
	ProtRead  = 0x1
	ProtWrite = 0x2
	ProtExec  = 0x4

	MapShared    = 0x01
	MapPrivate   = 0x02
	MapFixed     = 0x10
	MapAnonymous = 0x20
)
