package ir

import (
	"fmt"
	"sort"
	"strings"
)

// String renders the whole program in the textual IR syntax understood by
// package irtext.
func (p *Program) String() string {
	var sb strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&sb, "global %s: %d", g.Name, g.Size)
		if len(g.Init) > 0 {
			fmt.Fprintf(&sb, " = %q", string(g.Init))
		}
		sb.WriteByte('\n')
	}
	if len(p.Globals) > 0 {
		sb.WriteByte('\n')
	}
	for i, f := range p.Funcs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(f.String())
	}
	return sb.String()
}

// String renders one function.
func (f *Function) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(params %d, regs %d)", f.Name, f.NumParams, f.NumRegs)
	if f.TypeSig != "" {
		fmt.Fprintf(&sb, " sig %q", f.TypeSig)
	}
	sb.WriteString(" {\n")
	for _, s := range f.Locals {
		fmt.Fprintf(&sb, "  local %s: %d\n", s.Name, s.Size)
	}
	// Invert the label map for printing.
	labelAt := map[int][]string{}
	for name, idx := range f.labels {
		labelAt[idx] = append(labelAt[idx], name)
	}
	for idx := range labelAt {
		sort.Strings(labelAt[idx])
	}
	for i := range f.Code {
		for _, l := range labelAt[i] {
			fmt.Fprintf(&sb, " %s:\n", l)
		}
		in := &f.Code[i]
		fmt.Fprintf(&sb, "  %s\n", in.String())
	}
	for _, l := range labelAt[len(f.Code)] {
		fmt.Fprintf(&sb, " %s:\n", l)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// String renders one instruction in assembly-like form.
func (in *Instr) String() string {
	switch in.Kind {
	case Const:
		return fmt.Sprintf("r%d = const %d", in.Dst, in.Imm)
	case Mov:
		return fmt.Sprintf("r%d = mov %s", in.Dst, in.Src)
	case Bin:
		return fmt.Sprintf("r%d = %s %s, %s", in.Dst, in.Op, in.A, in.B)
	case Load:
		return fmt.Sprintf("r%d = load%d [r%d%+d]", in.Dst, in.Size, in.Addr, in.Off)
	case Store:
		return fmt.Sprintf("store%d [r%d%+d], %s", in.Size, in.Addr, in.Off, in.Src)
	case LocalAddr:
		return fmt.Sprintf("r%d = lea slot%d%+d", in.Dst, in.Slot, in.Off)
	case GlobalAddr:
		return fmt.Sprintf("r%d = lea @%s%+d", in.Dst, in.Sym, in.Off)
	case FuncAddr:
		return fmt.Sprintf("r%d = funcaddr %s", in.Dst, in.Sym)
	case Call:
		return fmt.Sprintf("r%d = call %s(%s)", in.Dst, in.Sym, operands(in.Args))
	case CallInd:
		return fmt.Sprintf("r%d = callind r%d(%s) sig %q", in.Dst, in.Target, operands(in.Args), in.TypeSig)
	case Syscall:
		return fmt.Sprintf("r%d = syscall(%s)", in.Dst, operands(in.Args))
	case Jump:
		return "jmp " + branchTarget(in)
	case BranchNZ:
		return fmt.Sprintf("bnz %s, %s", in.Src, branchTarget(in))
	case Ret:
		return fmt.Sprintf("ret %s", in.Src)
	case Intrinsic:
		switch in.IK {
		case CtxWriteMem:
			return fmt.Sprintf("ctx_write_mem(r%d, %d)", in.Addr, in.Size)
		case CtxBindMem:
			return fmt.Sprintf("ctx_bind_mem_%d(r%d) site %d", in.Pos, in.Addr, in.BindSite)
		case CtxBindConst:
			return fmt.Sprintf("ctx_bind_const_%d(%d) site %d", in.Pos, in.Imm, in.BindSite)
		}
	}
	return fmt.Sprintf("<%s>", in.Kind)
}

func branchTarget(in *Instr) string {
	if in.Label != "" {
		return in.Label
	}
	return fmt.Sprintf("#%d", in.ToIndex)
}

func operands(ops []Operand) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, ", ")
}
