// Package guestlibc provides the guest-side C-library analog: one IR
// wrapper function per implemented system call (each containing the single
// Syscall instruction, as libc stubs do) and a handful of string/memory
// helper routines shared by the guest applications.
//
// BASTION's call-type analysis classifies system calls by how these
// wrappers are referenced — called directly, address-taken for indirect
// calls, or never used — exactly as the paper's LLVM pass classifies libc
// syscall stubs.
package guestlibc

import (
	"bastion/internal/ir"
	"bastion/internal/kernel"
)

// wrapperSpec describes one syscall wrapper: its libc-style name, syscall
// number, and parameter count.
type wrapperSpec struct {
	name   string
	nr     int64
	params int
}

var wrappers = []wrapperSpec{
	{"read", kernel.SysRead, 3},
	{"write", kernel.SysWrite, 3},
	{"open", kernel.SysOpen, 3},
	{"openat", kernel.SysOpenat, 4},
	{"close", kernel.SysClose, 1},
	{"stat", kernel.SysStat, 2},
	{"fstat", kernel.SysFstat, 2},
	{"lseek", kernel.SysLseek, 3},
	{"mmap", kernel.SysMmap, 6},
	{"mprotect", kernel.SysMprotect, 3},
	{"munmap", kernel.SysMunmap, 2},
	{"brk", kernel.SysBrk, 1},
	{"mremap", kernel.SysMremap, 3},
	{"remap_file_pages", kernel.SysRemapFilePages, 2},
	{"getpid", kernel.SysGetpid, 0},
	{"sendfile", kernel.SysSendfile, 4},
	{"socket", kernel.SysSocket, 3},
	{"connect", kernel.SysConnect, 3},
	{"accept", kernel.SysAccept, 3},
	{"accept4", kernel.SysAccept4, 4},
	{"sendto", kernel.SysSendto, 3},
	{"recvfrom", kernel.SysRecvfrom, 3},
	{"bind", kernel.SysBind, 3},
	{"listen", kernel.SysListen, 2},
	{"clone", kernel.SysClone, 1},
	{"fork", kernel.SysFork, 0},
	{"vfork", kernel.SysVfork, 0},
	{"execve", kernel.SysExecve, 3},
	{"execveat", kernel.SysExecveat, 3},
	{"exit", kernel.SysExit, 1},
	{"exit_group", kernel.SysExitGroup, 1},
	{"chmod", kernel.SysChmod, 2},
	{"ptrace", kernel.SysPtrace, 4},
	{"setuid", kernel.SysSetuid, 1},
	{"setgid", kernel.SysSetgid, 1},
	{"setreuid", kernel.SysSetreuid, 2},
}

// AddSyscallWrappers registers every syscall wrapper function in p.
func AddSyscallWrappers(p *ir.Program) {
	for _, w := range wrappers {
		b := ir.NewBuilder(w.name, w.params)
		args := make([]ir.Operand, w.params)
		for i := 0; i < w.params; i++ {
			args[i] = ir.R(b.LoadLocal("p" + digits(i)))
		}
		r := b.Syscall(w.nr, args...)
		b.Ret(ir.R(r))
		p.AddFunc(b.Build())
	}
}

func digits(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// AddHelpers registers the shared string/memory helper functions:
// strlen(s), memcpy(dst, src, n), memset(dst, c, n), memcmp(a, b, n),
// and streq(a, b).
func AddHelpers(p *ir.Program) {
	p.AddFunc(buildStrlen())
	p.AddFunc(buildMemcpy())
	p.AddFunc(buildMemset())
	p.AddFunc(buildMemcmp())
	p.AddFunc(buildStreq())
}

// strlen(s): length of NUL-terminated string.
func buildStrlen() *ir.Function {
	b := ir.NewBuilder("strlen", 1)
	s := b.LoadLocal("p0")
	n := b.Const(0)
	b.Label("loop")
	addr := b.Bin(ir.OpAdd, ir.R(s), ir.R(n))
	c := b.Load(addr, 0, 1)
	z := b.Bin(ir.OpEq, ir.R(c), ir.Imm(0))
	b.BranchNZ(ir.R(z), "done")
	b.BinInto(n, ir.OpAdd, ir.R(n), ir.Imm(1))
	b.Jump("loop")
	b.Label("done")
	b.Ret(ir.R(n))
	return b.Build()
}

// memcpy(dst, src, n): byte copy; returns dst.
func buildMemcpy() *ir.Function {
	b := ir.NewBuilder("memcpy", 3)
	dst := b.LoadLocal("p0")
	src := b.LoadLocal("p1")
	n := b.LoadLocal("p2")
	i := b.Const(0)
	b.Label("loop")
	c := b.Bin(ir.OpLt, ir.R(i), ir.R(n))
	done := b.Bin(ir.OpEq, ir.R(c), ir.Imm(0))
	b.BranchNZ(ir.R(done), "out")
	sa := b.Bin(ir.OpAdd, ir.R(src), ir.R(i))
	v := b.Load(sa, 0, 1)
	da := b.Bin(ir.OpAdd, ir.R(dst), ir.R(i))
	b.Store(da, 0, ir.R(v), 1)
	b.BinInto(i, ir.OpAdd, ir.R(i), ir.Imm(1))
	b.Jump("loop")
	b.Label("out")
	b.Ret(ir.R(dst))
	return b.Build()
}

// memset(dst, c, n): fill; returns dst.
func buildMemset() *ir.Function {
	b := ir.NewBuilder("memset", 3)
	dst := b.LoadLocal("p0")
	c := b.LoadLocal("p1")
	n := b.LoadLocal("p2")
	i := b.Const(0)
	b.Label("loop")
	lt := b.Bin(ir.OpLt, ir.R(i), ir.R(n))
	done := b.Bin(ir.OpEq, ir.R(lt), ir.Imm(0))
	b.BranchNZ(ir.R(done), "out")
	da := b.Bin(ir.OpAdd, ir.R(dst), ir.R(i))
	b.Store(da, 0, ir.R(c), 1)
	b.BinInto(i, ir.OpAdd, ir.R(i), ir.Imm(1))
	b.Jump("loop")
	b.Label("out")
	b.Ret(ir.R(dst))
	return b.Build()
}

// memcmp(a, b, n): 0 if equal, 1 otherwise (ordering not preserved).
func buildMemcmp() *ir.Function {
	b := ir.NewBuilder("memcmp", 3)
	a := b.LoadLocal("p0")
	bb := b.LoadLocal("p1")
	n := b.LoadLocal("p2")
	i := b.Const(0)
	b.Label("loop")
	lt := b.Bin(ir.OpLt, ir.R(i), ir.R(n))
	done := b.Bin(ir.OpEq, ir.R(lt), ir.Imm(0))
	b.BranchNZ(ir.R(done), "eq")
	aa := b.Bin(ir.OpAdd, ir.R(a), ir.R(i))
	va := b.Load(aa, 0, 1)
	ba := b.Bin(ir.OpAdd, ir.R(bb), ir.R(i))
	vb := b.Load(ba, 0, 1)
	ne := b.Bin(ir.OpNe, ir.R(va), ir.R(vb))
	b.BranchNZ(ir.R(ne), "diff")
	b.BinInto(i, ir.OpAdd, ir.R(i), ir.Imm(1))
	b.Jump("loop")
	b.Label("diff")
	b.Ret(ir.Imm(1))
	b.Label("eq")
	b.Ret(ir.Imm(0))
	return b.Build()
}

// streq(a, b): 1 if NUL-terminated strings are equal, else 0.
func buildStreq() *ir.Function {
	b := ir.NewBuilder("streq", 2)
	a := b.LoadLocal("p0")
	bb := b.LoadLocal("p1")
	i := b.Const(0)
	b.Label("loop")
	aa := b.Bin(ir.OpAdd, ir.R(a), ir.R(i))
	va := b.Load(aa, 0, 1)
	ba := b.Bin(ir.OpAdd, ir.R(bb), ir.R(i))
	vb := b.Load(ba, 0, 1)
	ne := b.Bin(ir.OpNe, ir.R(va), ir.R(vb))
	b.BranchNZ(ir.R(ne), "diff")
	z := b.Bin(ir.OpEq, ir.R(va), ir.Imm(0))
	b.BranchNZ(ir.R(z), "eq")
	b.BinInto(i, ir.OpAdd, ir.R(i), ir.Imm(1))
	b.Jump("loop")
	b.Label("diff")
	b.Ret(ir.Imm(0))
	b.Label("eq")
	b.Ret(ir.Imm(1))
	return b.Build()
}

// NewProgram returns a fresh program pre-populated with all syscall
// wrappers and helpers — the starting point for every guest application.
func NewProgram() *ir.Program {
	p := ir.NewProgram()
	AddSyscallWrappers(p)
	AddHelpers(p)
	return p
}
