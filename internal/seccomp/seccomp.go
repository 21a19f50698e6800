// Package seccomp implements a classic-BPF (cBPF) virtual machine and a
// seccomp policy compiler, mirroring Linux's seccomp-BPF facility
// (SECure COMPuting with filters). The BASTION monitor compiles its
// call-type metadata into a filter program that the simulated kernel
// evaluates on every system call entry; evaluation cost (executed BPF
// instructions) feeds the cycle model, which is how the paper's
// "seccomp hook only" rows arise.
package seccomp

import (
	"errors"
	"fmt"
	"slices"
)

// seccomp_data field offsets (struct seccomp_data on Linux x86-64).
const (
	OffNr   = 0  // uint32 syscall number
	OffArch = 4  // uint32 architecture token
	OffIPLo = 8  // low half of the instruction pointer
	OffIPHi = 12 // high half
	// OffArgLo(i) = 16 + 8*i
)

// OffArgLo returns the offset of the low 32 bits of syscall argument i.
func OffArgLo(i int) uint32 { return uint32(16 + 8*i) }

// OffArgHi returns the offset of the high 32 bits of syscall argument i.
func OffArgHi(i int) uint32 { return uint32(20 + 8*i) }

// AuditArchX86_64 is the AUDIT_ARCH_X86_64 token.
const AuditArchX86_64 uint32 = 0xc000003e

// Data mirrors struct seccomp_data: the view of a syscall presented to the
// filter program.
type Data struct {
	Nr   uint32
	Arch uint32
	IP   uint64
	Args [6]uint64
}

func (d *Data) load32(off uint32) (uint32, bool) {
	switch {
	case off == OffNr:
		return d.Nr, true
	case off == OffArch:
		return d.Arch, true
	case off == OffIPLo:
		return uint32(d.IP), true
	case off == OffIPHi:
		return uint32(d.IP >> 32), true
	case off >= 16 && off < 64 && off%4 == 0:
		i := (off - 16) / 8
		if (off-16)%8 == 0 {
			return uint32(d.Args[i]), true
		}
		return uint32(d.Args[i] >> 32), true
	}
	return 0, false
}

// Filter return actions (SECCOMP_RET_*).
const (
	RetKill  uint32 = 0x0000_0000
	RetTrap  uint32 = 0x0003_0000
	RetErrno uint32 = 0x0005_0000
	RetTrace uint32 = 0x7ff0_0000
	RetLog   uint32 = 0x7ffc_0000
	RetAllow uint32 = 0x7fff_0000

	// RetActionMask extracts the action from a return value; the low bits
	// carry SECCOMP_RET_DATA (errno value or trace cookie).
	RetActionMask uint32 = 0x7fff_0000
	RetDataMask   uint32 = 0x0000_ffff
)

// ActionName names an action value for diagnostics.
func ActionName(v uint32) string {
	switch v & RetActionMask {
	case RetKill:
		return "KILL"
	case RetTrap:
		return "TRAP"
	case RetErrno:
		return "ERRNO"
	case RetTrace:
		return "TRACE"
	case RetLog:
		return "LOG"
	case RetAllow:
		return "ALLOW"
	}
	return fmt.Sprintf("ACTION(%#x)", v)
}

// BPF instruction class and mode bits (classic BPF encoding).
const (
	ClsLd   uint16 = 0x00
	ClsLdx  uint16 = 0x01
	ClsSt   uint16 = 0x02
	ClsStx  uint16 = 0x03
	ClsAlu  uint16 = 0x04
	ClsJmp  uint16 = 0x05
	ClsRet  uint16 = 0x06
	ClsMisc uint16 = 0x07

	ModeImm uint16 = 0x00
	ModeAbs uint16 = 0x20
	ModeMem uint16 = 0x60

	SizeW uint16 = 0x00

	AluAdd uint16 = 0x00
	AluSub uint16 = 0x10
	AluMul uint16 = 0x20
	AluDiv uint16 = 0x30
	AluOr  uint16 = 0x40
	AluAnd uint16 = 0x50
	AluLsh uint16 = 0x60
	AluRsh uint16 = 0x70
	AluNeg uint16 = 0x80

	JmpJa   uint16 = 0x00
	JmpJeq  uint16 = 0x10
	JmpJgt  uint16 = 0x20
	JmpJge  uint16 = 0x30
	JmpJset uint16 = 0x40

	SrcK uint16 = 0x00
	SrcX uint16 = 0x08

	RvalK uint16 = 0x00
	RvalA uint16 = 0x10
)

// Insn is one classic-BPF instruction (struct sock_filter).
type Insn struct {
	Code   uint16
	Jt, Jf uint8
	K      uint32
}

// Convenience constructors for the instruction subset seccomp programs use.

// LoadAbs loads the 32-bit word at offset off of seccomp_data into A.
func LoadAbs(off uint32) Insn { return Insn{Code: ClsLd | SizeW | ModeAbs, K: off} }

// JumpEq compares A to k: skips jt instructions when equal, jf otherwise.
func JumpEq(k uint32, jt, jf uint8) Insn {
	return Insn{Code: ClsJmp | JmpJeq | SrcK, Jt: jt, Jf: jf, K: k}
}

// Jump skips k instructions unconditionally.
func Jump(k uint32) Insn { return Insn{Code: ClsJmp | JmpJa, K: k} }

// RetConst returns the constant action k.
func RetConst(k uint32) Insn { return Insn{Code: ClsRet | RvalK, K: k} }

// MaxInsns is the kernel's BPF_MAXINSNS.
const MaxInsns = 4096

// Validate performs the structural checks the kernel applies at
// SECCOMP_SET_MODE_FILTER time: bounded length, in-range forward jumps, a
// terminating return, recognized opcodes, and full forward reachability.
func Validate(prog []Insn) error {
	if len(prog) == 0 {
		return errors.New("seccomp: empty program")
	}
	if len(prog) > MaxInsns {
		return fmt.Errorf("seccomp: program too long (%d insns)", len(prog))
	}
	for pc, in := range prog {
		switch in.Code & 0x07 {
		case ClsLd, ClsLdx, ClsSt, ClsStx, ClsAlu, ClsRet, ClsMisc:
			// opcode-specific validation happens at run time
		case ClsJmp:
			if in.Code&0xf0 == JmpJa {
				if pc+1+int(in.K) >= len(prog) {
					return fmt.Errorf("seccomp: insn %d: jump out of range", pc)
				}
			} else {
				if pc+1+int(in.Jt) >= len(prog) || pc+1+int(in.Jf) >= len(prog) {
					return fmt.Errorf("seccomp: insn %d: branch out of range", pc)
				}
			}
		}
	}
	if last := prog[len(prog)-1]; last.Code&0x07 != ClsRet {
		return errors.New("seccomp: program does not end in a return")
	}
	// Forward reachability (jumps are forward-only, so one pass suffices):
	// every instruction must be reachable from entry. This is what makes a
	// malformed branch offset fail closed — a jump whose target lands past
	// the end of an emitted arg-compare chain strands the chain's
	// terminating return and is rejected here instead of silently changing
	// the program's decision.
	reach := make([]bool, len(prog))
	reach[0] = true
	for pc, in := range prog {
		if !reach[pc] {
			return fmt.Errorf("seccomp: insn %d unreachable", pc)
		}
		switch {
		case in.Code&0x07 == ClsRet:
			// terminates; successors unaffected
		case in.Code&0x07 == ClsJmp && in.Code&0xf0 == JmpJa:
			reach[pc+1+int(in.K)] = true
		case in.Code&0x07 == ClsJmp:
			reach[pc+1+int(in.Jt)] = true
			reach[pc+1+int(in.Jf)] = true
		default:
			reach[pc+1] = true
		}
	}
	return nil
}

// Run evaluates prog against data, returning the action value and the
// number of instructions executed (the cost signal for the cycle model).
func Run(prog []Insn, data *Data) (action uint32, steps int, err error) {
	action, steps, _, err = RunByNr(prog, data)
	return action, steps, err
}

// RunByNr is the interpreter behind Run. It also reports byNr: whether
// the run completed having loaded nothing from data but Nr and Arch;
// the first load of the IP or of an argument word, or any fault, clears
// it. Every other input of a run (scratch, X, immediates) starts the same
// each time, so such a run's action and steps follow from prog, Nr and
// Arch alone: a caller may keep them per syscall number for as long as
// prog stays unchanged, as the kernel's filter verdict memo does.
func RunByNr(prog []Insn, data *Data) (action uint32, steps int, byNr bool, err error) {
	var a, x uint32
	var scratch [16]uint32
	pc := 0
	byNr = true
	for steps = 1; steps <= len(prog)+MaxInsns; steps++ {
		if pc < 0 || pc >= len(prog) {
			return 0, steps, false, fmt.Errorf("seccomp: pc %d out of range", pc)
		}
		in := prog[pc]
		pc++
		switch in.Code & 0x07 {
		case ClsLd:
			switch in.Code & 0xe0 {
			case ModeAbs:
				if in.K > OffArch {
					byNr = false
				}
				v, ok := data.load32(in.K)
				if !ok {
					return 0, steps, false, fmt.Errorf("seccomp: bad load offset %d", in.K)
				}
				a = v
			case ModeImm:
				a = in.K
			case ModeMem:
				if in.K >= 16 {
					return 0, steps, false, fmt.Errorf("seccomp: bad scratch slot %d", in.K)
				}
				a = scratch[in.K]
			default:
				return 0, steps, false, fmt.Errorf("seccomp: bad load mode %#x", in.Code)
			}
		case ClsLdx:
			switch in.Code & 0xe0 {
			case ModeImm:
				x = in.K
			case ModeMem:
				if in.K >= 16 {
					return 0, steps, false, fmt.Errorf("seccomp: bad scratch slot %d", in.K)
				}
				x = scratch[in.K]
			default:
				return 0, steps, false, fmt.Errorf("seccomp: bad ldx mode %#x", in.Code)
			}
		case ClsSt:
			if in.K >= 16 {
				return 0, steps, false, fmt.Errorf("seccomp: bad scratch slot %d", in.K)
			}
			scratch[in.K] = a
		case ClsStx:
			if in.K >= 16 {
				return 0, steps, false, fmt.Errorf("seccomp: bad scratch slot %d", in.K)
			}
			scratch[in.K] = x
		case ClsAlu:
			src := in.K
			if in.Code&SrcX != 0 {
				src = x
			}
			switch in.Code & 0xf0 {
			case AluAdd:
				a += src
			case AluSub:
				a -= src
			case AluMul:
				a *= src
			case AluDiv:
				if src == 0 {
					return 0, steps, false, errors.New("seccomp: division by zero")
				}
				a /= src
			case AluOr:
				a |= src
			case AluAnd:
				a &= src
			case AluLsh:
				a <<= src & 31
			case AluRsh:
				a >>= src & 31
			case AluNeg:
				a = -a
			default:
				return 0, steps, false, fmt.Errorf("seccomp: bad alu op %#x", in.Code)
			}
		case ClsJmp:
			src := in.K
			if in.Code&SrcX != 0 {
				src = x
			}
			var taken bool
			switch in.Code & 0xf0 {
			case JmpJa:
				pc += int(in.K)
				continue
			case JmpJeq:
				taken = a == src
			case JmpJgt:
				taken = a > src
			case JmpJge:
				taken = a >= src
			case JmpJset:
				taken = a&src != 0
			default:
				return 0, steps, false, fmt.Errorf("seccomp: bad jump op %#x", in.Code)
			}
			if taken {
				pc += int(in.Jt)
			} else {
				pc += int(in.Jf)
			}
		case ClsRet:
			if in.Code&0x18 == RvalA {
				return a, steps, byNr, nil
			}
			return in.K, steps, byNr, nil
		default:
			return 0, steps, false, fmt.Errorf("seccomp: bad class %#x", in.Code)
		}
	}
	return 0, steps, false, errors.New("seccomp: instruction budget exceeded (loop?)")
}

// Policy is a high-level seccomp policy: per-syscall actions over a default.
type Policy struct {
	Default uint32
	// Actions maps syscall number to action for syscalls that deviate from
	// the default.
	Actions map[uint32]uint32
	// ArgRules maps syscall number to an argument-conditional decision
	// evaluated entirely in-filter from the literal argument registers in
	// seccomp_data. A syscall number must not appear in both Actions and
	// ArgRules.
	ArgRules map[uint32]ArgRule
	// CheckArch inserts the standard architecture guard that kills the
	// process on a foreign-architecture syscall.
	CheckArch bool
}

// ArgMatch requires syscall argument Pos (0-based register position) to
// equal the full 64-bit value Val.
type ArgMatch struct {
	Pos int
	Val uint64
}

// ArgRule decides a syscall from its argument registers: when every match
// holds the filter returns Match, otherwise Else. An empty match list
// degenerates to an unconditional Match.
type ArgRule struct {
	Matches []ArgMatch
	Match   uint32
	Else    uint32
}

// checkRules validates the rule tables before compilation. Iteration is
// over the sorted union so error selection is deterministic.
func (p *Policy) checkRules() error {
	for _, nr := range p.sortedNrs() {
		r, ok := p.ArgRules[nr]
		if !ok {
			continue
		}
		if _, dup := p.Actions[nr]; dup {
			return fmt.Errorf("seccomp: nr %d appears in both Actions and ArgRules", nr)
		}
		if len(r.Matches) > 6 {
			return fmt.Errorf("seccomp: nr %d: too many arg matches (%d)", nr, len(r.Matches))
		}
		for _, m := range r.Matches {
			if m.Pos < 0 || m.Pos > 5 {
				return fmt.Errorf("seccomp: nr %d: arg position %d out of range", nr, m.Pos)
			}
		}
	}
	return nil
}

// bodyFor emits the decision block entered once the syscall number has
// matched nr: either a bare return of the configured action, or an
// argument-compare chain for an ArgRule. Every path through the block ends
// in a return (arg loads clobber A, so nothing downstream may rely on it).
func (p *Policy) bodyFor(nr uint32) []Insn {
	r, ok := p.ArgRules[nr]
	if !ok {
		return []Insn{RetConst(p.Actions[nr])}
	}
	if len(r.Matches) == 0 {
		return []Insn{RetConst(r.Match)}
	}
	matches := slices.Clone(r.Matches)
	slices.SortStableFunc(matches, func(a, b ArgMatch) int { return a.Pos - b.Pos })
	// Layout: 4 insns per match, then `ret Match` at 4k and `ret Else` at
	// 4k+1. Each failed comparison branches to the else return.
	body := make([]Insn, 0, 4*len(matches)+2)
	for _, m := range matches {
		i := len(body)
		// Classic BPF loads are 32-bit, so a 64-bit equality test must
		// compare BOTH halves of args[pos]; checking only the low word
		// would silently truncate constants above 2^32 and negative
		// sentinels like -1 fds.
		body = append(body,
			LoadAbs(OffArgLo(m.Pos)),
			JumpEq(uint32(m.Val), 0, uint8(4*len(matches)-i-1)),
			LoadAbs(OffArgHi(m.Pos)),
			JumpEq(uint32(m.Val>>32), 0, uint8(4*len(matches)-i-3)),
		)
	}
	return append(body, RetConst(r.Match), RetConst(r.Else))
}

// Compile lowers the policy to a cBPF program:
//
//	[arch guard]
//	ld  [nr]
//	jeq nr_i -> body_i   (one comparison chain entry per rule)
//	ret default
//
// where body_i is a bare action return or an argument-compare chain (see
// bodyFor). Rules are emitted in ascending syscall-number order for
// determinism.
func (p *Policy) Compile() ([]Insn, error) {
	if err := p.checkRules(); err != nil {
		return nil, err
	}
	if len(p.Actions)+len(p.ArgRules) > MaxInsns/2 {
		return nil, fmt.Errorf("seccomp: too many rules (%d)", len(p.Actions)+len(p.ArgRules))
	}
	var prog []Insn
	if p.CheckArch {
		prog = append(prog,
			LoadAbs(OffArch),
			JumpEq(AuditArchX86_64, 1, 0),
			RetConst(RetKill),
		)
	}
	prog = append(prog, LoadAbs(OffNr))
	// Each rule is `jeq nr, 0, len(body); body` — fall through to the next
	// comparison on mismatch. Bodies are at most 26 instructions (6 matches
	// × 4 + 2 returns), well inside the 8-bit branch range.
	for _, nr := range p.sortedNrs() {
		body := p.bodyFor(nr)
		prog = append(prog, JumpEq(nr, 0, uint8(len(body))))
		prog = append(prog, body...)
	}
	prog = append(prog, RetConst(p.Default))
	if err := Validate(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// CompileTree lowers the policy to a balanced binary-search program over
// the sorted syscall numbers (the libseccomp binary-tree technique):
//
//	[arch guard]
//	ld  [nr]
//	jge pivot -> right half          (one instruction per tree level)
//	[left half] [right half]
//
// with leaves of up to leafRun syscalls lowered as short jeq runs. The
// emitted program is action-equivalent to Compile's linear chain but
// executes O(log n) instructions per evaluation instead of O(n), which is
// what the per-hook cycle cost of the ModeHookOnly rows measures.
func (p *Policy) CompileTree() ([]Insn, error) {
	if err := p.checkRules(); err != nil {
		return nil, err
	}
	// Worst case per plain rule: jgt + ja trampoline + jeq + ret, plus one
	// default return per leaf (#rules + 1 leaves) and the 4-insn prologue.
	// Arg-rule bodies are longer; Validate's length check backstops them.
	if len(p.Actions)+len(p.ArgRules) > (MaxInsns-8)/6 {
		return nil, fmt.Errorf("seccomp: too many rules (%d)", len(p.Actions)+len(p.ArgRules))
	}
	var prog []Insn
	if p.CheckArch {
		prog = append(prog,
			LoadAbs(OffArch),
			JumpEq(AuditArchX86_64, 1, 0),
			RetConst(RetKill),
		)
	}
	prog = append(prog, LoadAbs(OffNr))
	prog = append(prog, p.emitSearch(p.sortedNrs())...)
	if err := Validate(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// leafRun is the maximum number of syscalls lowered as one jeq run at a
// tree leaf; above it the range is split by a jge pivot.
const leafRun = 4

// emitSearch emits the binary search over nrs as a self-contained block:
// A holds the syscall number on entry, and every path ends in a return.
// Internal nodes cost exactly one executed instruction (a jge range
// split); leaves cost one jeq per candidate plus that candidate's decision
// body — a bare return, or a per-nr arg subtree whose mismatch jumps skip
// to the next candidate's comparison.
func (p *Policy) emitSearch(nrs []uint32) []Insn {
	if len(nrs) <= leafRun {
		var block []Insn
		for _, nr := range nrs {
			body := p.bodyFor(nr)
			block = append(block, JumpEq(nr, 0, uint8(len(body))))
			block = append(block, body...)
		}
		return append(block, RetConst(p.Default))
	}
	// Split at the first element of the upper half: A >= pivot searches the
	// right block, A < pivot falls through to the left block.
	mid := len(nrs) / 2
	pivot := nrs[mid]
	left := p.emitSearch(nrs[:mid])
	right := p.emitSearch(nrs[mid:])
	// Layout: [jge][left][right]. Conditional branch offsets are 8-bit, so
	// a skip past a long left block goes through an unconditional `ja`
	// trampoline (32-bit offset): [jge][ja][left][right].
	skip := len(left)
	block := make([]Insn, 0, 2+len(left)+len(right))
	if skip <= 255 {
		block = append(block, Insn{Code: ClsJmp | JmpJge | SrcK, Jt: uint8(skip), Jf: 0, K: pivot})
	} else {
		block = append(block,
			Insn{Code: ClsJmp | JmpJge | SrcK, Jt: 0, Jf: 1, K: pivot},
			Jump(uint32(skip)))
	}
	block = append(block, left...)
	block = append(block, right...)
	return block
}

// sortedNrs returns the union of Actions and ArgRules syscall numbers in
// ascending order.
func (p *Policy) sortedNrs() []uint32 {
	nrs := make([]uint32, 0, len(p.Actions)+len(p.ArgRules))
	for nr := range p.Actions {
		nrs = append(nrs, nr)
	}
	for nr := range p.ArgRules {
		if _, ok := p.Actions[nr]; !ok {
			nrs = append(nrs, nr)
		}
	}
	slices.Sort(nrs)
	return nrs
}
