package seccomp

import "fmt"

// RetAcc returns the accumulator.
func RetAcc() Insn { return Insn{Code: ClsRet | RvalA} }

// Disasm renders the program for debugging.
func Disasm(prog []Insn) string {
	out := ""
	for pc, in := range prog {
		out += fmt.Sprintf("%3d: ", pc)
		switch {
		case in.Code == ClsLd|SizeW|ModeAbs:
			out += fmt.Sprintf("ld  [%s]\n", offsetName(in.K))
		case in.Code&0x07 == ClsJmp && in.Code&0xf0 == JmpJa:
			out += fmt.Sprintf("ja  +%d\n", in.K)
		case in.Code&0x07 == ClsJmp:
			out += fmt.Sprintf("j%s #%#x jt=%d jf=%d\n", jmpName(in.Code), in.K, in.Jt, in.Jf)
		case in.Code&0x07 == ClsRet && in.Code&0x18 == RvalA:
			out += "ret A\n"
		case in.Code&0x07 == ClsRet:
			out += fmt.Sprintf("ret %s\n", ActionName(in.K))
		default:
			out += fmt.Sprintf("op %#x k=%#x\n", in.Code, in.K)
		}
	}
	return out
}

// offsetName renders a seccomp_data load offset symbolically so arg-compare
// chains read as `ld [args[i].lo]` rather than raw byte offsets.
func offsetName(off uint32) string {
	switch {
	case off == OffNr:
		return "nr"
	case off == OffArch:
		return "arch"
	case off == OffIPLo:
		return "ip.lo"
	case off == OffIPHi:
		return "ip.hi"
	case off >= 16 && off < 64 && off%4 == 0:
		i := (off - 16) / 8
		if (off-16)%8 == 0 {
			return fmt.Sprintf("args[%d].lo", i)
		}
		return fmt.Sprintf("args[%d].hi", i)
	}
	return fmt.Sprintf("%d", off)
}

func jmpName(code uint16) string {
	switch code & 0xf0 {
	case JmpJeq:
		return "eq"
	case JmpJgt:
		return "gt"
	case JmpJge:
		return "ge"
	case JmpJset:
		return "set"
	}
	return "??"
}
