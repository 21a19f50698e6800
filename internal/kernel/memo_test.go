package kernel_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/seccomp"
	"bastion/internal/vm"
)

// memoNrs are the numbers FuzzFilterVerdictMemo issues: implemented calls
// that do no harm with any small arguments, and unimplemented numbers,
// which share the overflow slot.
var memoNrs = []uint32{
	kernel.SysClose, kernel.SysFstat, kernel.SysLseek, kernel.SysMprotect,
	kernel.SysMunmap, kernel.SysGetpid, kernel.SysSetuid,
	6, 7, 999, math.MaxInt32, math.MaxUint32,
}

// encodeProg packs prog as FuzzRun does: 8 bytes per instruction.
func encodeProg(prog []seccomp.Insn) []byte {
	buf := make([]byte, 0, len(prog)*8)
	for _, in := range prog {
		var b [8]byte
		binary.LittleEndian.PutUint16(b[0:], in.Code)
		b[2], b[3] = in.Jt, in.Jf
		binary.LittleEndian.PutUint32(b[4:], in.K)
		buf = append(buf, b[:]...)
	}
	return buf
}

// decodeProg unpacks up to 64 instructions packed by encodeProg.
func decodeProg(raw []byte) []seccomp.Insn {
	var prog []seccomp.Insn
	for i := 0; i+8 <= len(raw) && len(prog) < 64; i += 8 {
		prog = append(prog, seccomp.Insn{
			Code: binary.LittleEndian.Uint16(raw[i:]),
			Jt:   raw[i+2], Jf: raw[i+3],
			K: binary.LittleEndian.Uint32(raw[i+4:]),
		})
	}
	return prog
}

// memoGuest is one process under test with its kernel, machine and tracer.
type memoGuest struct {
	k  *kernel.Kernel
	m  *vm.Machine
	p  *kernel.Process
	tr *allowTracer
}

func newMemoGuest(tb testing.TB, prog *ir.Program, filter []seccomp.Insn) *memoGuest {
	tb.Helper()
	clock := &vm.Clock{}
	k := kernel.New(clock)
	m, err := vm.New(prog, vm.WithOS(k), vm.WithClock(clock))
	if err != nil {
		tb.Fatal(err)
	}
	g := &memoGuest{k: k, m: m, p: k.Register(m), tr: &allowTracer{}}
	if err := g.p.SetSeccompFilter(filter); err != nil {
		tb.Fatal(err)
	}
	g.p.SetTracer(g.tr)
	return g
}

// issue makes the syscall regs and returns its value and error text.
func (g *memoGuest) issue(regs vm.Regs) (int64, string) {
	g.m.SysRegs = regs
	ret, err := g.k.Syscall(g.m)
	if err != nil {
		return ret, err.Error()
	}
	return ret, ""
}

// memoState is everything a syscall's filter stage can move.
type memoState struct {
	clock, filterSteps, traps, tracerTraps uint64
	calls, completed, logs                 kernel.Counts
	killed                                 bool
}

func (g *memoGuest) state() memoState {
	return memoState{
		clock: g.k.Clock.Cycles, filterSteps: g.p.FilterSteps,
		traps: g.p.TrapCount, tracerTraps: uint64(g.tr.traps),
		calls: g.p.SyscallCounts, completed: g.p.CompletedCounts, logs: g.p.LogVerdicts,
		killed: g.p.Killed(),
	}
}

// FuzzFilterVerdictMemo: a process that answers repeated syscall numbers
// from its verdict memo behaves, call by call, exactly as one that runs
// the filter each time. Random valid programs (argument and IP loads,
// scratch, `ret A`, faults) meet random call sequences that include
// overflow-slot numbers. For every call, the memo process must agree with
// seccomp.Run on the call's seccomp_data (the outcome its action implies,
// the steps FilterSteps gains, the fault it reports), and with a twin
// whose memo is emptied before each call on the return value, error,
// clock and every counter.
func FuzzFilterVerdictMemo(f *testing.F) {
	pol := &seccomp.Policy{
		Default:   seccomp.RetAllow,
		Actions:   map[uint32]uint32{kernel.SysLseek: seccomp.RetTrace, 999: seccomp.RetErrno | 7},
		ArgRules:  map[uint32]seccomp.ArgRule{kernel.SysClose: {Matches: []seccomp.ArgMatch{{Pos: 0, Val: 3}}, Match: seccomp.RetLog, Else: seccomp.RetErrno | 9}},
		CheckArch: true,
	}
	compiled, err := pol.Compile()
	if err != nil {
		f.Fatal(err)
	}
	retA := seccomp.Insn{Code: seccomp.ClsRet | seccomp.RvalA}
	calls := []byte{
		2, 3, 0, 0, 0, 0, 0, 0, // close(3)
		2, 4, 0, 0, 0, 0, 0, 0, // close(4)
		1, 0, 0, 0, 0, 0, 0, 0, // lseek
		9, 0, 0, 0, 0, 0, 0, 0, // 999
		8, 0, 0, 0, 0, 0, 0, 0, // 7
		5, 0, 0, 0, 0, 0, 0, 1, // getpid
		5, 0, 0, 0, 0, 0, 0, 2, // getpid, another IP
		2, 3, 0, 0, 0, 0, 0, 0, // close(3) again
		9, 0, 0, 0, 0, 0, 0, 0,
		1, 0, 0, 0, 0, 0, 0, 0,
	}
	f.Add(encodeProg(compiled), calls)
	// The verdict is the low word of arg 0.
	f.Add(encodeProg([]seccomp.Insn{seccomp.LoadAbs(seccomp.OffArgLo(0)), retA}), calls)
	// The verdict follows the IP: allow at IP 1, ERRNO elsewhere.
	f.Add(encodeProg([]seccomp.Insn{
		seccomp.LoadAbs(seccomp.OffIPLo),
		seccomp.JumpEq(1, 0, 1),
		seccomp.RetConst(seccomp.RetAllow),
		seccomp.RetConst(seccomp.RetErrno | 1),
	}), calls)
	// Scratch and X carry the number into the verdict: ERRNO | nr.
	f.Add(encodeProg([]seccomp.Insn{
		seccomp.LoadAbs(seccomp.OffNr),
		{Code: seccomp.ClsSt, K: 2},
		{Code: seccomp.ClsLdx | seccomp.ModeMem, K: 2},
		{Code: seccomp.ClsLd | seccomp.ModeImm, K: seccomp.RetErrno},
		{Code: seccomp.ClsAlu | seccomp.AluOr | seccomp.SrcX},
		retA,
	}), calls)
	// Faults: getpid divides by zero, and any other number loads past
	// seccomp_data whenever its arg 0 is nonzero.
	f.Add(encodeProg([]seccomp.Insn{
		seccomp.LoadAbs(seccomp.OffNr),
		seccomp.JumpEq(kernel.SysGetpid, 0, 1),
		{Code: seccomp.ClsAlu | seccomp.AluDiv | seccomp.SrcK, K: 0},
		seccomp.LoadAbs(seccomp.OffArgLo(0)),
		seccomp.JumpEq(0, 0, 1),
		seccomp.RetConst(seccomp.RetAllow),
		seccomp.LoadAbs(64),
		retA,
	}), calls)
	// Unknown actions: USER_NOTIF for every number.
	f.Add(encodeProg([]seccomp.Insn{seccomp.RetConst(0x7fc0_0000)}), calls)

	guestProg := guestlibc.NewProgram()
	b := ir.NewBuilder("main", 0)
	b.Ret(ir.Imm(0))
	guestProg.AddFunc(b.Build())
	if err := guestProg.Link(); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, rawProg, rawCalls []byte) {
		prog := decodeProg(rawProg)
		if seccomp.Validate(prog) != nil {
			return
		}
		memo := newMemoGuest(t, guestProg, prog)
		twin := newMemoGuest(t, guestProg, prog)
		for c := 0; c+8 <= len(rawCalls) && c < 8*48; c += 8 {
			call := rawCalls[c : c+8]
			regs := vm.Regs{
				RAX: uint64(memoNrs[int(call[0])%len(memoNrs)]),
				RDI: uint64(int8(call[1])), RSI: uint64(int8(call[2])), RDX: uint64(int8(call[3])),
				R10: uint64(int8(call[4])), R8: uint64(int8(call[5])), R9: uint64(int8(call[6])),
				RIP: uint64(call[7]),
			}
			nr := uint32(regs.RAX)
			data := &seccomp.Data{
				Nr: nr, Arch: seccomp.AuditArchX86_64, IP: regs.RIP,
				Args: [6]uint64{regs.RDI, regs.RSI, regs.RDX, regs.R10, regs.R8, regs.R9},
			}
			action, steps, runErr := seccomp.Run(prog, data)

			before := memo.state()
			twin.p.ForgetVerdicts()
			ret, errText := memo.issue(regs)
			twinRet, twinErr := twin.issue(regs)
			after := memo.state()
			where := func() string {
				return fmt.Sprintf("call %s(%#x) at ip %d under %v", kernel.Name(nr), regs.RDI, regs.RIP, prog)
			}

			if ret != twinRet || errText != twinErr {
				t.Fatalf("%s: memo returned (%d, %q), the interpreter (%d, %q)", where(), ret, errText, twinRet, twinErr)
			}
			if after != twin.state() {
				t.Fatalf("%s: memo state %+v, interpreter state %+v", where(), after, twin.state())
			}
			if runErr != nil {
				if want := "kernel: seccomp filter fault: " + runErr.Error(); errText != want {
					t.Fatalf("%s: error %q, want %q", where(), errText, want)
				}
				if after.filterSteps != before.filterSteps {
					t.Fatalf("%s: a failed run charged %d steps", where(), after.filterSteps-before.filterSteps)
				}
				continue
			}
			if got := after.filterSteps - before.filterSteps; got != uint64(steps) {
				t.Fatalf("%s: charged %d steps, Run took %d", where(), got, steps)
			}
			completed := after.completed != before.completed
			switch action & seccomp.RetActionMask {
			case seccomp.RetAllow, seccomp.RetTrace:
				if !completed || errText != "" {
					t.Fatalf("%s: %s did not complete: %d, %q", where(), seccomp.ActionName(action), ret, errText)
				}
			case seccomp.RetLog:
				if !completed || after.logs == before.logs {
					t.Fatalf("%s: LOG did not complete with a log verdict", where())
				}
			case seccomp.RetErrno:
				if completed || errText != "" || ret != -int64(action&seccomp.RetDataMask) {
					t.Fatalf("%s: ERRNO %d gave (%d, %q)", where(), action&seccomp.RetDataMask, ret, errText)
				}
			default:
				if completed || !after.killed || !strings.Contains(errText, seccomp.ActionName(action)) {
					t.Fatalf("%s: %s gave (%d, %q), completed %v, killed %v", where(), seccomp.ActionName(action), ret, errText, completed, after.killed)
				}
			}
		}
	})
}

// TestSetSeccompFilterDropsVerdicts: installing a filter, even on top of
// one whose verdicts the memo holds, starts the memo empty, so the new
// program decides (and is charged for) the very next call.
func TestSetSeccompFilterDropsVerdicts(t *testing.T) {
	k, m, proc, _ := newFilteredGuest(t)
	syscall(t, k, m, kernel.SysGetpid)
	if !proc.Memoized(kernel.SysGetpid) {
		t.Fatal("getpid's verdict was not kept")
	}
	deny := []seccomp.Insn{
		seccomp.LoadAbs(seccomp.OffNr),
		seccomp.JumpEq(kernel.SysGetpid, 0, 1),
		seccomp.RetConst(seccomp.RetErrno | 5),
		seccomp.RetConst(seccomp.RetAllow),
	}
	if err := proc.SetSeccompFilter(deny); err != nil {
		t.Fatal(err)
	}
	if proc.Memoized(kernel.SysGetpid) {
		t.Fatal("SetSeccompFilter kept the old filter's verdict")
	}
	steps := proc.FilterSteps
	if got := syscall(t, k, m, kernel.SysGetpid); got != -5 {
		t.Fatalf("getpid under the new filter returned %d, want -5", got)
	}
	if got := proc.FilterSteps - steps; got != 3 {
		t.Fatalf("getpid under the new filter charged %d steps, want 3", got)
	}
	if got := syscall(t, k, m, kernel.SysGetpid); got != -5 || !proc.Memoized(kernel.SysGetpid) {
		t.Fatalf("second getpid returned %d, memoized %v", got, proc.Memoized(kernel.SysGetpid))
	}
}

// TestOverflowSlotNeverMemoized: two unimplemented numbers share the
// overflow slot, so a verdict kept there would answer one with the
// other's. Under a filter that gives them different verdicts, each keeps
// its own, however they interleave.
func TestOverflowSlotNeverMemoized(t *testing.T) {
	k, m, proc, _ := newFilteredGuest(t)
	pol := &seccomp.Policy{
		Default: seccomp.RetAllow,
		Actions: map[uint32]uint32{998: seccomp.RetErrno | 5, 999: seccomp.RetErrno | 7},
	}
	prog, err := pol.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.SetSeccompFilter(prog); err != nil {
		t.Fatal(err)
	}
	for i, nr := range []uint32{998, 999, 999, 998, 6, 998} {
		want := map[uint32]int64{998: -5, 999: -7, 6: -kernel.ENOSYS}[nr]
		if got := syscall(t, k, m, nr); got != want {
			t.Fatalf("call %d (%d) returned %d, want %d", i, nr, got, want)
		}
		if proc.Memoized(nr) {
			t.Fatalf("call %d: the overflow slot holds a verdict", i)
		}
	}
}

// TestUnknownFilterActionKills: an action the kernel does not implement,
// such as USER_NOTIF or a `ret A` of a loaded argument, kills the process
// before the syscall runs, as Linux's __seccomp_filter does; it never
// falls through to execution.
func TestUnknownFilterActionKills(t *testing.T) {
	retArg0 := []seccomp.Insn{
		seccomp.LoadAbs(seccomp.OffArgLo(0)),
		{Code: seccomp.ClsRet | seccomp.RvalA},
	}
	userNotif := []seccomp.Insn{seccomp.RetConst(0x7fc0_0000)}
	for _, c := range []struct {
		name   string
		filter []seccomp.Insn
		arg0   uint64
	}{
		{"user-notif", userNotif, 0},
		{"ret-A", retArg0, 0x7fc0_0000},
		{"ret-A-unassigned", retArg0, 0x1234_0000},
	} {
		k, m, proc, _ := newFilteredGuest(t)
		if err := proc.SetSeccompFilter(c.filter); err != nil {
			t.Fatal(err)
		}
		m.SysRegs = vm.Regs{RAX: kernel.SysGetpid, RDI: c.arg0}
		_, err := k.Syscall(m)
		var ke *vm.KillError
		if !errors.As(err, &ke) || ke.By != "seccomp" || !strings.Contains(ke.Reason, "ACTION(") {
			t.Fatalf("%s: err = %v, want a seccomp kill naming the action", c.name, err)
		}
		if !proc.Killed() || proc.CompletedCounts.Of(kernel.SysGetpid) != 0 {
			t.Fatalf("%s: killed %v, completed %d", c.name, proc.Killed(), proc.CompletedCounts.Of(kernel.SysGetpid))
		}
	}
	// The argument decides: the same filter allows a call whose arg 0 is
	// ALLOW, so the arg-reading run must not have been kept.
	k, m, proc, _ := newFilteredGuest(t)
	if err := proc.SetSeccompFilter(retArg0); err != nil {
		t.Fatal(err)
	}
	for _, arg0 := range []uint64{uint64(seccomp.RetAllow), 0x7fc0_0000} {
		m.SysRegs = vm.Regs{RAX: kernel.SysGetpid, RDI: arg0}
		_, err := k.Syscall(m)
		if (err == nil) != (arg0 == uint64(seccomp.RetAllow)) {
			t.Fatalf("ret A of %#x: err = %v", arg0, err)
		}
		if proc.Memoized(kernel.SysGetpid) {
			t.Fatal("a run that read an argument was kept")
		}
	}
}
