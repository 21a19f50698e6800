package seccomp

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPolicyCompileAndRun(t *testing.T) {
	p := &Policy{
		Default: RetAllow,
		Actions: map[uint32]uint32{
			59: RetTrace, // execve
			10: RetTrace, // mprotect
			99: RetKill,
		},
		CheckArch: true,
	}
	prog, err := p.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	cases := []struct {
		nr   uint32
		want uint32
	}{
		{59, RetTrace},
		{10, RetTrace},
		{99, RetKill},
		{1, RetAllow},
		{0, RetAllow},
	}
	for _, tc := range cases {
		got, steps, err := Run(prog, &Data{Nr: tc.nr, Arch: AuditArchX86_64})
		if err != nil {
			t.Fatalf("Run(nr=%d): %v", tc.nr, err)
		}
		if got != tc.want {
			t.Errorf("nr %d: action %s, want %s", tc.nr, ActionName(got), ActionName(tc.want))
		}
		if steps <= 0 || steps > len(prog) {
			t.Errorf("nr %d: steps = %d out of range", tc.nr, steps)
		}
	}
	// Foreign architecture is killed by the guard.
	got, _, err := Run(prog, &Data{Nr: 1, Arch: 0x1234})
	if err != nil || got != RetKill {
		t.Fatalf("foreign arch: %s, %v", ActionName(got), err)
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		prog []Insn
		want string
	}{
		{"empty", nil, "empty"},
		{"no return", []Insn{LoadAbs(0)}, "does not end in a return"},
		{"jump out of range", []Insn{Jump(5), RetConst(RetAllow)}, "out of range"},
		{"branch out of range", []Insn{JumpEq(1, 9, 0), RetConst(RetAllow)}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.prog)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want %q", err, tc.want)
			}
		})
	}
	long := make([]Insn, MaxInsns+1)
	for i := range long {
		long[i] = RetConst(RetAllow)
	}
	if err := Validate(long); err == nil {
		t.Fatal("overlong program accepted")
	}
}

func TestDataLoadOffsets(t *testing.T) {
	d := &Data{
		Nr:   7,
		Arch: AuditArchX86_64,
		IP:   0x1122334455667788,
		Args: [6]uint64{0xa, 0xb, 0xc, 0xd, 0xe, 0xf00000000},
	}
	checks := []struct {
		off  uint32
		want uint32
	}{
		{OffNr, 7},
		{OffArch, AuditArchX86_64},
		{OffIPLo, 0x55667788},
		{OffIPHi, 0x11223344},
		{OffArgLo(0), 0xa},
		{OffArgLo(5), 0},
		{OffArgHi(5), 0xf},
	}
	for _, c := range checks {
		prog := []Insn{LoadAbs(c.off), RetAcc()}
		got, _, err := Run(prog, d)
		if err != nil {
			t.Fatalf("off %d: %v", c.off, err)
		}
		if got != c.want {
			t.Errorf("off %d: got %#x want %#x", c.off, got, c.want)
		}
	}
	// Misaligned / out-of-struct loads fault.
	for _, off := range []uint32{1, 3, 64, 100} {
		prog := []Insn{LoadAbs(off), RetAcc()}
		if _, _, err := Run(prog, d); err == nil {
			t.Errorf("load at %d succeeded", off)
		}
	}
}

func TestAluAndScratch(t *testing.T) {
	// A = nr; M[0] = A; A = A*2 + 5; X = M[0]; A -= X  => A = nr + 5.
	prog := []Insn{
		LoadAbs(OffNr),
		{Code: ClsSt, K: 0},
		{Code: ClsAlu | AluMul | SrcK, K: 2},
		{Code: ClsAlu | AluAdd | SrcK, K: 5},
		{Code: ClsLdx | ModeMem, K: 0},
		{Code: ClsAlu | AluSub | SrcX},
		RetAcc(),
	}
	got, _, err := Run(prog, &Data{Nr: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got != 105 {
		t.Fatalf("got %d, want 105", got)
	}
}

func TestJumpVariants(t *testing.T) {
	// jgt 10: ret 1 else jge 5: ret 2 else jset 0x1: ret 3 else ret 4
	prog := []Insn{
		LoadAbs(OffNr),
		{Code: ClsJmp | JmpJgt | SrcK, K: 10, Jt: 0, Jf: 1},
		RetConst(1),
		{Code: ClsJmp | JmpJge | SrcK, K: 5, Jt: 0, Jf: 1},
		RetConst(2),
		{Code: ClsJmp | JmpJset | SrcK, K: 1, Jt: 0, Jf: 1},
		RetConst(3),
		RetConst(4),
	}
	for _, tc := range []struct{ nr, want uint32 }{
		{11, 1}, {10, 2}, {5, 2}, {3, 3}, {2, 4},
	} {
		got, _, err := Run(prog, &Data{Nr: tc.nr})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("nr %d: got %d want %d", tc.nr, got, tc.want)
		}
	}
}

func TestRunFaults(t *testing.T) {
	if _, _, err := Run([]Insn{{Code: ClsAlu | AluDiv | SrcK, K: 0}, RetAcc()}, &Data{}); err == nil {
		t.Fatal("div by zero passed")
	}
	if _, _, err := Run([]Insn{{Code: 0xff}}, &Data{}); err == nil {
		t.Fatal("bad opcode passed")
	}
	if _, _, err := Run([]Insn{{Code: ClsSt, K: 99}}, &Data{}); err == nil {
		t.Fatal("bad scratch slot passed")
	}
}

func TestActionName(t *testing.T) {
	for v, want := range map[uint32]string{
		RetAllow:       "ALLOW",
		RetKill:        "KILL",
		RetTrace:       "TRACE",
		RetTrace | 0x1: "TRACE", // data bits ignored
		RetErrno | 13:  "ERRNO",
		RetTrap:        "TRAP",
		RetLog:         "LOG",
	} {
		if got := ActionName(v); got != want {
			t.Errorf("ActionName(%#x) = %q want %q", v, got, want)
		}
	}
}

func TestDisasmMentionsEveryInsn(t *testing.T) {
	p := &Policy{Default: RetAllow, Actions: map[uint32]uint32{59: RetTrace}}
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	d := Disasm(prog)
	if !strings.Contains(d, "ld") || !strings.Contains(d, "jeq") || !strings.Contains(d, "ret ALLOW") {
		t.Fatalf("Disasm output incomplete:\n%s", d)
	}
}

func TestCompileTreeAndRun(t *testing.T) {
	p := &Policy{
		Default: RetAllow,
		Actions: map[uint32]uint32{
			59: RetTrace, // execve
			10: RetTrace, // mprotect
			99: RetKill,
		},
		CheckArch: true,
	}
	prog, err := p.CompileTree()
	if err != nil {
		t.Fatalf("CompileTree: %v", err)
	}
	for _, tc := range []struct{ nr, want uint32 }{
		{59, RetTrace}, {10, RetTrace}, {99, RetKill}, {1, RetAllow}, {0, RetAllow}, {1 << 30, RetAllow},
	} {
		got, steps, err := Run(prog, &Data{Nr: tc.nr, Arch: AuditArchX86_64})
		if err != nil {
			t.Fatalf("Run(nr=%d): %v", tc.nr, err)
		}
		if got != tc.want {
			t.Errorf("nr %d: action %s, want %s", tc.nr, ActionName(got), ActionName(tc.want))
		}
		if steps <= 0 || steps > len(prog) {
			t.Errorf("nr %d: steps = %d out of range", tc.nr, steps)
		}
	}
	got, _, err := Run(prog, &Data{Nr: 1, Arch: 0x1234})
	if err != nil || got != RetKill {
		t.Fatalf("foreign arch: %s, %v", ActionName(got), err)
	}
}

// Property: the tree program returns exactly the same action as the linear
// program for any rule set and probe, including probes outside the set.
func TestCompileTreeEquivalence(t *testing.T) {
	f := func(rules map[uint32]bool, probe uint32) bool {
		p := &Policy{Default: RetAllow, Actions: map[uint32]uint32{}, CheckArch: true}
		for nr, trace := range rules {
			if trace {
				p.Actions[nr] = RetTrace
			} else {
				p.Actions[nr] = RetKill
			}
		}
		lin, err := p.Compile()
		if err != nil {
			return false
		}
		tree, err := p.CompileTree()
		if err != nil {
			return false
		}
		data := &Data{Nr: probe, Arch: AuditArchX86_64}
		want, _, err := Run(lin, data)
		if err != nil {
			return false
		}
		got, _, err := Run(tree, data)
		if err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A rule set large enough that left-subtree skips exceed the 8-bit branch
// range exercises the `ja` trampoline path; the tree must stay equivalent
// and strictly cheaper to evaluate than the linear chain.
func TestCompileTreeLargePolicy(t *testing.T) {
	p := &Policy{Default: RetAllow, Actions: map[uint32]uint32{}, CheckArch: true}
	for i := uint32(0); i < 600; i++ {
		nr := i * 7
		act := RetTrace
		if i%3 == 0 {
			act = RetKill
		}
		p.Actions[nr] = act
	}
	lin, err := p.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	tree, err := p.CompileTree()
	if err != nil {
		t.Fatalf("CompileTree: %v", err)
	}
	var linSteps, treeSteps int
	for nr := uint32(0); nr < 600*7+50; nr += 3 {
		data := &Data{Nr: nr, Arch: AuditArchX86_64}
		want, ls, err := Run(lin, data)
		if err != nil {
			t.Fatalf("linear nr %d: %v", nr, err)
		}
		got, ts, err := Run(tree, data)
		if err != nil {
			t.Fatalf("tree nr %d: %v", nr, err)
		}
		if got != want {
			t.Fatalf("nr %d: tree %s, linear %s", nr, ActionName(got), ActionName(want))
		}
		linSteps += ls
		treeSteps += ts
	}
	if treeSteps >= linSteps {
		t.Fatalf("tree executed %d insns, linear %d: expected strictly fewer", treeSteps, linSteps)
	}
}

func TestCompileTreeTooManyRules(t *testing.T) {
	p := &Policy{Default: RetAllow, Actions: map[uint32]uint32{}}
	for i := uint32(0); i <= uint32((MaxInsns-8)/6); i++ {
		p.Actions[i] = RetKill
	}
	if _, err := p.CompileTree(); err == nil {
		t.Fatal("oversized rule set accepted")
	}
}

// Property: a compiled policy always returns exactly the configured action
// for every syscall number.
func TestPolicyProperty(t *testing.T) {
	f := func(rules map[uint32]bool, probe uint32) bool {
		p := &Policy{Default: RetAllow, Actions: map[uint32]uint32{}}
		for nr, trace := range rules {
			nr %= 512
			if trace {
				p.Actions[nr] = RetTrace
			} else {
				p.Actions[nr] = RetKill
			}
		}
		prog, err := p.Compile()
		if err != nil {
			return false
		}
		probe %= 512
		got, _, err := Run(prog, &Data{Nr: probe})
		if err != nil {
			return false
		}
		want, ok := p.Actions[probe]
		if !ok {
			want = RetAllow
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRunByNr: RunByNr returns what Run returns, and reports byNr exactly
// for the runs that completed having loaded nothing past Arch. A load of
// the IP or of any argument word clears it, also when the branch it fed
// went the same way; a fault clears it; scratch, X and `ret A` of the
// number keep it.
func TestRunByNr(t *testing.T) {
	pol := &Policy{
		Default:   RetAllow,
		Actions:   map[uint32]uint32{59: RetTrace},
		ArgRules:  map[uint32]ArgRule{9: {Matches: []ArgMatch{{Pos: 2, Val: 7}}, Match: RetLog, Else: RetTrace}},
		CheckArch: true,
	}
	linear, err := pol.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := pol.CompileTree()
	if err != nil {
		t.Fatal(err)
	}
	nrPlus5 := []Insn{
		LoadAbs(OffNr),
		{Code: ClsSt, K: 0},
		{Code: ClsLdx | ModeMem, K: 0},
		{Code: ClsAlu | AluAdd | SrcK, K: 5},
		RetAcc(),
	}
	for _, c := range []struct {
		name string
		prog []Insn
		nr   uint32
		byNr bool
	}{
		{"linear rule", linear, 59, true},
		{"linear default", linear, 1, true},
		{"linear arg rule", linear, 9, false},
		{"tree rule", tree, 59, true},
		{"tree arg rule", tree, 9, false},
		{"scratch and X", nrPlus5, 3, true},
		{"ip low", []Insn{LoadAbs(OffIPLo), RetConst(RetAllow)}, 1, false},
		{"ip high", []Insn{LoadAbs(OffIPHi), RetConst(RetAllow)}, 1, false},
		{"arg 5 high", []Insn{LoadAbs(OffArgHi(5)), RetConst(RetAllow)}, 1, false},
		{"bad offset", []Insn{LoadAbs(2), RetConst(RetAllow)}, 1, false},
		{"division by zero", []Insn{{Code: ClsAlu | AluDiv | SrcK, K: 0}, RetConst(RetAllow)}, 1, false},
	} {
		d := &Data{Nr: c.nr, Arch: AuditArchX86_64, IP: 0x401000, Args: [6]uint64{1, 2, 7}}
		action, steps, byNr, err := RunByNr(c.prog, d)
		wantAction, wantSteps, wantErr := Run(c.prog, d)
		if action != wantAction || steps != wantSteps || (err == nil) != (wantErr == nil) {
			t.Errorf("%s: RunByNr (%#x, %d, %v), Run (%#x, %d, %v)", c.name, action, steps, err, wantAction, wantSteps, wantErr)
		}
		if byNr != c.byNr {
			t.Errorf("%s: byNr %v, want %v", c.name, byNr, c.byNr)
		}
	}
}
