package vm

import (
	"testing"

	"bastion/internal/ir"
)

// TestGadgetEntryMidFunction: control can land in the middle of a function
// via a corrupted return address (gadget semantics), executing the suffix.
func TestGadgetEntryMidFunction(t *testing.T) {
	p := ir.NewProgram()
	p.AddGlobal(&ir.Global{Name: "mark", Size: 8})

	// gadgets: [0] store 1, [1] store 2, [2] ret — entering at instr 1
	// must skip the first store. The address register is materialized
	// fresh at each instruction so a mid-entry lands on valid state.
	g := ir.NewBuilder("gadgets", 0)
	g1 := g.GlobalLea("mark", 0)
	g.Store(g1, 0, ir.Imm(1), 8)
	g2 := g.GlobalLea("mark", 0)
	g.Store(g2, 0, ir.Imm(2), 8)
	g.Ret(ir.Imm(0))
	p.AddFunc(g.Build())

	// victim: hook overwrites its return address with gadgets+2 (the
	// second GlobalLea), so only the second store executes.
	v := ir.NewBuilder("victim", 0)
	v.Local("pad", 16)
	v.Ret(ir.Imm(0))
	p.AddFunc(v.Build())

	b := ir.NewBuilder("main", 0)
	b.Call("victim")
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())

	m := mustMachine(t, p)
	gf := p.Func("gadgets")
	if err := m.HookFunc("victim", 0, func(mm *Machine) error {
		return mm.Mem.WriteUint(mm.RBP()+8, gf.InstrAddr(2), 8)
	}); err != nil {
		t.Fatal(err)
	}
	// The gadget's own ret pops main's frame (the chain is shared), so the
	// run ends at the sentinel.
	if _, err := m.CallFunction("main"); err != nil {
		t.Fatalf("gadget run: %v", err)
	}
	mark, _ := m.Mem.ReadUint(p.GlobalByName("mark").Addr, 8)
	if mark != 2 {
		t.Fatalf("mark = %d, want 2 (suffix-only execution)", mark)
	}
}

// TestRegisterIsolationAcrossFrames: callee register writes never leak
// into the caller's register file.
func TestRegisterIsolationAcrossFrames(t *testing.T) {
	p := ir.NewProgram()
	clobber := ir.NewBuilder("clobber", 0)
	for i := 0; i < 16; i++ {
		clobber.Const(0xdead)
	}
	clobber.Ret(ir.Imm(0))
	p.AddFunc(clobber.Build())

	b := ir.NewBuilder("main", 0)
	vals := make([]ir.Reg, 8)
	for i := range vals {
		vals[i] = b.Const(int64(100 + i))
	}
	b.Call("clobber")
	sum := b.Const(0)
	for _, r := range vals {
		b.BinInto(sum, ir.OpAdd, ir.R(sum), ir.R(r))
	}
	b.Ret(ir.R(sum))
	p.AddFunc(b.Build())

	m := mustMachine(t, p)
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatal(err)
	}
	if got != 100+101+102+103+104+105+106+107 {
		t.Fatalf("caller registers clobbered: sum = %d", got)
	}
}

// TestIndirectCallArityMismatchTolerated: a hijacked pointer reaches its
// target even when argument counts disagree (real machines do not check);
// missing arguments arrive as zero.
func TestIndirectCallArityMismatchTolerated(t *testing.T) {
	p := ir.NewProgram()
	takes3 := ir.NewBuilder("takes3", 3)
	a := takes3.LoadLocal("p0")
	c := takes3.LoadLocal("p2")
	takes3.Ret(ir.R(takes3.Bin(ir.OpAdd, ir.R(a), ir.R(c))))
	p.AddFunc(takes3.Build())

	b := ir.NewBuilder("main", 0)
	fp := b.FuncAddr("takes3")
	r := b.CallInd(fp, "i64(i64)", ir.Imm(41)) // only one argument
	b.Ret(ir.R(r))
	p.AddFunc(b.Build())

	m := mustMachine(t, p)
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 41 { // p0=41, p2 arrives as 0
		t.Fatalf("got %d, want 41", got)
	}
}

func TestCallFunctionOnHaltedMachine(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewBuilder("main", 0)
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())
	m := mustMachine(t, p, WithOS(&fakeOS{}))
	// Force a halt via a guest exit.
	w := ir.NewBuilder("die", 0)
	_ = w
	m.halted = true
	if _, err := m.CallFunction("main"); err == nil {
		t.Fatal("CallFunction on halted machine succeeded")
	}
}

// TestUnwindStopsOnCorruptChain: Unwind surfaces the readable prefix and
// an error when the frame-pointer chain leaves mapped memory.
func TestUnwindStopsOnCorruptChain(t *testing.T) {
	p := ir.NewProgram()
	w := ir.NewBuilder("sys_probe", 0)
	w.Syscall(999)
	w.Ret(ir.Imm(0))
	p.AddFunc(w.Build())
	b := ir.NewBuilder("main", 0)
	b.Call("sys_probe")
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())

	var unwound []uint64
	var uerr error
	os := &hookOS{fn: func(mm *Machine) {
		// Corrupt the innermost saved rbp to an unmapped address, then
		// unwind.
		mm.Mem.WriteUint(mm.SysRegs.RBP, 0xdea0000000, 8)
		unwound, uerr = mm.Unwind(16)
	}}
	m := mustMachine(t, p, WithOS(os))
	// The corrupted saved frame pointer eventually crashes the guest's own
	// return path — the run must fault, not silently continue.
	if _, err := m.CallFunction("main"); err == nil {
		t.Fatal("run with corrupted frame chain succeeded")
	}
	if uerr == nil {
		t.Fatal("Unwind of corrupt chain reported no error")
	}
	if len(unwound) != 1 {
		t.Fatalf("unwound %d frames, want the 1 readable frame", len(unwound))
	}
}

// allRegs allocates the builder's whole register file, in order.
func allRegs(b *ir.Builder) []ir.Reg {
	regs := make([]ir.Reg, MaxRegsPerFrame)
	for i := range regs {
		regs[i] = b.Reg()
	}
	return regs
}

// addDirty adds a function that writes 0xdead into every register, then
// (unless callee is "") calls callee, and returns 0.
func addDirty(p *ir.Program, name, callee string) {
	b := ir.NewBuilder(name, 0)
	regs := allRegs(b)
	for _, r := range regs {
		b.ConstInto(r, 0xdead)
	}
	if callee != "" {
		b.Emit(ir.Instr{Kind: ir.Call, Dst: regs[0], Sym: callee})
	}
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())
}

// addProbe adds a function that ORs together every register before
// writing any, then (unless callee is "") ORs in callee's result, and
// returns the accumulation: nonzero iff it inherited a stale register.
func addProbe(p *ir.Program, name, callee string) {
	b := ir.NewBuilder(name, 0)
	regs := allRegs(b)
	acc := regs[len(regs)-1] // read before its first write
	for _, r := range regs[:len(regs)-1] {
		b.BinInto(acc, ir.OpOr, ir.R(acc), ir.R(r))
	}
	if callee != "" {
		b.Emit(ir.Instr{Kind: ir.Call, Dst: regs[0], Sym: callee})
		b.BinInto(acc, ir.OpOr, ir.R(acc), ir.R(regs[0]))
	}
	b.Ret(ir.R(acc))
	p.AddFunc(b.Build())
}

// topFrame records the executing register frame when a hook fires.
func topFrame(dst **frame) Hook {
	return func(m *Machine) error {
		*dst = m.frames[len(m.frames)-1]
		return nil
	}
}

// TestReusedFramesStartZeroed is the inverse of
// TestRegisterIsolationAcrossFrames: after deeper callees filled their
// register files with 0xdead and returned, new callees at the same depths
// run in the same (reused) register frames and still read 0 from every
// register they have not written.
func TestReusedFramesStartZeroed(t *testing.T) {
	p := ir.NewProgram()
	addDirty(p, "dirty", "")
	addDirty(p, "deep", "dirty")
	addProbe(p, "probe", "")
	addProbe(p, "probeDeep", "probe")
	b := ir.NewBuilder("main", 0)
	b.Call("deep")
	r := b.Call("probeDeep")
	b.Ret(ir.R(r))
	p.AddFunc(b.Build())

	m := mustMachine(t, p)
	var dirtyFr, probeFr *frame
	if err := m.HookFunc("dirty", 0, topFrame(&dirtyFr)); err != nil {
		t.Fatal(err)
	}
	if err := m.HookFunc("probe", 0, topFrame(&probeFr)); err != nil {
		t.Fatal(err)
	}
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("callee inherited stale registers: OR = %#x", got)
	}
	if dirtyFr == nil || dirtyFr != probeFr {
		t.Fatal("probe did not run in the register frame dirty returned")
	}
}

// TestFabricatedFrameStartsZeroed covers the hijacked-bottom-frame path:
// the bottom frame fills its registers with 0xdead, then returns into a
// gadget through a corrupted return address. The fabricated frame reuses
// the popped one and must read 0 from every register.
func TestFabricatedFrameStartsZeroed(t *testing.T) {
	p := ir.NewProgram()
	addDirty(p, "victim", "")
	addProbe(p, "gadget", "")
	p.Entry = "victim"
	m := mustMachine(t, p)

	victim, gadget := p.Func("victim"), p.Func("gadget")
	var victimFr, gadgetFr *frame
	if err := m.HookFunc("victim", 0, topFrame(&victimFr)); err != nil {
		t.Fatal(err)
	}
	if err := m.HookFunc("gadget", 0, topFrame(&gadgetFr)); err != nil {
		t.Fatal(err)
	}
	ret := len(victim.Code) - 1
	if err := m.HookFunc("victim", ret, func(mm *Machine) error {
		return mm.Mem.WriteUint(mm.RBP()+8, gadget.Base, 8)
	}); err != nil {
		t.Fatal(err)
	}
	// The gadget returns through the sentinel frame, ending the run with
	// its accumulation in the return-value register.
	got, err := m.CallFunction("victim")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("fabricated frame inherited stale registers: OR = %#x", got)
	}
	if victimFr == nil || victimFr != gadgetFr {
		t.Fatal("the fabricated frame did not reuse the popped bottom frame")
	}
}

// TestPooledFramesStartZeroed extends TestReusedFramesStartZeroed across
// machines: a machine released into a Pool leaves its register frames,
// dirty with 0xdead, for the next machine on the pool, which runs in the
// same frames and still reads 0 from every register it has not written.
func TestPooledFramesStartZeroed(t *testing.T) {
	p := ir.NewProgram()
	addDirty(p, "dirty", "")
	addDirty(p, "deep", "dirty")
	addProbe(p, "probe", "")
	addProbe(p, "probeDeep", "probe")
	p.Entry = "deep"
	var pool Pool

	first := mustMachine(t, p, WithPool(&pool))
	var dirtyFr, probeFr *frame
	if err := first.HookFunc("dirty", 0, topFrame(&dirtyFr)); err != nil {
		t.Fatal(err)
	}
	if _, err := first.CallFunction("deep"); err != nil {
		t.Fatal(err)
	}
	first.Release()
	if got := pool.Frames(); got != 2 {
		t.Fatalf("the pool holds %d frames, want the 2 the first machine used", got)
	}

	second := mustMachine(t, p, WithPool(&pool))
	if pool.Frames() != 0 {
		t.Fatal("the second machine left its frames in the pool")
	}
	if err := second.HookFunc("probe", 0, topFrame(&probeFr)); err != nil {
		t.Fatal(err)
	}
	got, err := second.CallFunction("probeDeep")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("pooled frame carried stale registers: OR = %#x", got)
	}
	if dirtyFr == nil || dirtyFr != probeFr {
		t.Fatal("probe did not run in the frame the first machine released")
	}
}

// TestHijackedReturnReadsZeroRegisters: a reused frame is cleared up to
// its high-water mark, not just to the new function's register count, and
// a hijacked return that switches a frame to a function with more
// registers raises the mark. "hijack"'s return address is pointed into
// "gadget" ([0] r7 = 0xbeef, [1] r0 = 1, [2] ret r7), which then runs in
// its caller "victim"'s frame; victim has one register, gadget eight.
// Entered at [2], gadget returns r7 unwritten and must read 0, as in a
// freshly allocated frame:
//   - in main's second call, whose frame "wide" left r0..r7 at 0xdead;
//   - in a frame gadget itself wrote r7 in, after entering at [0], and
//     that victim has reused since.
func TestHijackedReturnReadsZeroRegisters(t *testing.T) {
	p := ir.NewProgram()
	w := ir.NewBuilder("wide", 0)
	for i := 0; i < 8; i++ {
		w.Const(0xdead)
	}
	w.Ret(ir.Imm(0))
	p.AddFunc(w.Build())

	h := ir.NewBuilder("hijack", 0)
	h.Ret(ir.Imm(0))
	p.AddFunc(h.Build())

	v := ir.NewBuilder("victim", 0)
	r := v.Call("hijack")
	v.Ret(ir.R(r))
	p.AddFunc(v.Build())

	g := ir.NewBuilder("gadget", 0)
	regs := make([]ir.Reg, 8)
	for i := range regs {
		regs[i] = g.Reg()
	}
	g.ConstInto(regs[7], 0xbeef)
	g.ConstInto(regs[0], 1)
	g.Ret(ir.R(regs[7]))
	p.AddFunc(g.Build())

	b := ir.NewBuilder("main", 0)
	b.Call("wide")
	res := b.Call("victim")
	b.Ret(ir.R(res))
	p.AddFunc(b.Build())

	m := mustMachine(t, p)
	if nv, ng := p.Func("victim").RegBound(), p.Func("gadget").RegBound(); nv >= 8 || ng != 8 {
		t.Fatalf("register bounds victim %d, gadget %d: want victim below 8, gadget 8", nv, ng)
	}
	gadget := p.Func("gadget")
	entry := 2
	if err := m.HookFunc("hijack", 0, func(mm *Machine) error {
		return mm.Mem.WriteUint(mm.RBP()+8, gadget.InstrAddr(entry), 8)
	}); err != nil {
		t.Fatal(err)
	}
	var wideFr, victimFr *frame
	if err := m.HookFunc("wide", 0, topFrame(&wideFr)); err != nil {
		t.Fatal(err)
	}
	if err := m.HookFunc("victim", 0, topFrame(&victimFr)); err != nil {
		t.Fatal(err)
	}
	if got, err := m.CallFunction("main"); err != nil || got != 0 {
		t.Fatalf("gadget read r7 = %#x (%v) in the frame wide left, want 0", got, err)
	}
	if wideFr == nil || wideFr != victimFr {
		t.Fatal("victim did not run in the register frame wide returned")
	}

	entry = 0
	if got, err := m.CallFunction("victim"); err != nil || got != 0xbeef {
		t.Fatalf("gadget entered at [0] returned %#x (%v), want 0xbeef", got, err)
	}
	written := victimFr
	entry = 2
	if got, err := m.CallFunction("victim"); err != nil || got != 0 {
		t.Fatalf("gadget read r7 = %#x (%v) in the frame it wrote r7 in, want 0", got, err)
	}
	if victimFr != written {
		t.Fatal("victim did not reuse the frame gadget wrote")
	}
}
