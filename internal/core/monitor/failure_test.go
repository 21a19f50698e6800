package monitor_test

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/core"
	"bastion/internal/core/metadata"
	"bastion/internal/core/monitor"
	"bastion/internal/core/shadow"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// buildTiny returns a program whose main performs one sensitive call.
func buildTiny() *ir.Program {
	p := guestlibc.NewProgram()
	b := ir.NewBuilder("main", 0)
	b.Call("mmap", ir.Imm(0), ir.Imm(4096), ir.Imm(3), ir.Imm(0x22), ir.Imm(-1), ir.Imm(0))
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())
	return p
}

// TestStaleMetadataFailsClosed: a monitor loaded with metadata for a
// different binary (wrong addresses) must kill at the first sensitive
// syscall instead of allowing it.
func TestStaleMetadataFailsClosed(t *testing.T) {
	art, err := core.Compile(buildTiny(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: drop every callsite, as if the binary were rebuilt after
	// the metadata was generated.
	stale := metadata.New()
	stale.Entry = art.Meta.Entry
	stale.CallTypes = art.Meta.CallTypes
	stale.Funcs = art.Meta.Funcs
	art.Meta = stale

	k := kernel.New(nil)
	prot, err := core.Launch(art, k, monitor.DefaultConfig(), vm.WithMaxSteps(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	_, err = prot.Machine.CallFunction("main")
	var ke *vm.KillError
	if !errors.As(err, &ke) || ke.By != "monitor" {
		t.Fatalf("stale metadata allowed the syscall: %v", err)
	}
}

// TestMetadataJSONSidecarFlow: metadata serialized to JSON and reloaded
// (the bastionc sidecar) enforces identically.
func TestMetadataJSONSidecarFlow(t *testing.T) {
	art, err := core.Compile(buildTiny(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := art.Meta.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := metadata.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	art.Meta = reloaded

	k := kernel.New(nil)
	prot, err := core.Launch(art, k, monitor.DefaultConfig(), vm.WithMaxSteps(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatalf("legit run under reloaded metadata: %v", err)
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations: %v", prot.Monitor.Violations)
	}
}

// TestUnwindDepthExhaustionIsViolation: a stack deeper than the unwind
// bound cannot be verified and must be treated as a violation, not
// silently truncated.
func TestUnwindDepthExhaustionIsViolation(t *testing.T) {
	p := guestlibc.NewProgram()
	// deep(n): if n == 0 { mmap(...) } else { deep(n-1) }
	d := ir.NewBuilder("deep", 1)
	n := d.LoadLocal("p0")
	z := d.Bin(ir.OpEq, ir.R(n), ir.Imm(0))
	d.BranchNZ(ir.R(z), "base")
	n2 := d.LoadLocal("p0")
	dec := d.Bin(ir.OpSub, ir.R(n2), ir.Imm(1))
	r := d.Call("deep", ir.R(dec))
	d.Ret(ir.R(r))
	d.Label("base")
	r2 := d.Call("mmap", ir.Imm(0), ir.Imm(4096), ir.Imm(3), ir.Imm(0x22), ir.Imm(-1), ir.Imm(0))
	d.Ret(ir.R(r2))
	p.AddFunc(d.Build())
	b := ir.NewBuilder("main", 0)
	b.Call("deep", ir.Imm(20))
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())

	art, err := core.Compile(p, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := monitor.DefaultConfig()
	cfg.MaxUnwindDepth = 8 // shallower than the 20-deep recursion
	prot, err := core.Launch(art, kernel.New(nil), cfg, vm.WithMaxSteps(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	_, err = prot.Machine.CallFunction("main")
	var ke *vm.KillError
	if !errors.As(err, &ke) {
		t.Fatalf("depth-capped walk allowed: %v", err)
	}
	if got := prot.Monitor.ViolatedContexts(); got&monitor.ControlFlow == 0 {
		t.Fatalf("violated = %v", got)
	}
}

// TestInKernelMonitorEnforcesIdentically: the §11.2 in-kernel mode must
// change only cost, never verdicts.
func TestInKernelMonitorEnforcesIdentically(t *testing.T) {
	// Legit run passes.
	art, err := core.Compile(buildTiny(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := monitor.DefaultConfig()
	cfg.InKernel = true
	prot, err := core.Launch(art, kernel.New(nil), cfg, vm.WithMaxSteps(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatalf("in-kernel legit run: %v", err)
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations: %v", prot.Monitor.Violations)
	}

	// Attack (argument corruption at the stub boundary) is still caught.
	art2, err := core.Compile(buildTiny(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prot2, err := core.Launch(art2, kernel.New(nil), cfg, vm.WithMaxSteps(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	if err := prot2.Machine.HookFunc("mmap", 0, func(m *vm.Machine) error {
		addr, err := m.SlotAddr("p2")
		if err != nil {
			return err
		}
		return m.Mem.WriteUint(addr, 7, 8) // PROT_RWX instead of RW
	}); err != nil {
		t.Fatal(err)
	}
	_, err = prot2.Machine.CallFunction("main")
	var ke *vm.KillError
	if !errors.As(err, &ke) || ke.By != "monitor" {
		t.Fatalf("in-kernel monitor missed corruption: %v", err)
	}
}

// TestShadowRegionIsMappedAtLaunch: the §7.1 launch sequence maps the
// shadow region into the guest before execution starts.
func TestShadowRegionIsMappedAtLaunch(t *testing.T) {
	art, err := core.Compile(buildTiny(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := core.Launch(art, kernel.New(nil), monitor.DefaultConfig(), vm.WithMaxSteps(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	if !prot.Machine.Mem.Mapped(ir.ShadowBase) {
		t.Fatal("shadow region unmapped")
	}
	if perm, _ := prot.Machine.Mem.PermAt(ir.ShadowBase); perm.String() != "rw-" {
		t.Fatalf("shadow region perm = %v", perm)
	}
}

// TestForgedDigestSizeFailsClosed: the meta word of a shadow value entry
// lives in guest-writable memory, so an attacker can flag a word-sized
// entry as the digest of a 2 GiB object. The monitor must still judge the
// argument — here the pointee runs off the end of the 4 MiB shadow region
// it points into, an argument-integrity kill — while streaming the
// pointee, not allocating a host buffer of the forged size.
func TestForgedDigestSizeFailsClosed(t *testing.T) {
	const length = ir.ShadowBase // a pointer into the mapped shadow region
	p := guestlibc.NewProgram()
	b := ir.NewBuilder("main", 0)
	b.Local("len", 8)
	b.Store(b.Lea("len", 0), 0, ir.Imm(int64(length)), 8)
	lv := b.Load(b.Lea("len", 0), 0, 8)
	b.Call("mmap", ir.Imm(0), ir.R(lv), ir.Imm(3), ir.Imm(0x22), ir.Imm(-1), ir.Imm(0))
	b.Ret(ir.Imm(0))
	p.AddFunc(b.Build())
	art, err := core.Compile(p, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inKernel := range []bool{false, true} {
		cfg := monitor.DefaultConfig()
		cfg.InKernel = inKernel
		prot, err := core.Launch(art, kernel.New(nil), cfg, vm.WithMaxSteps(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		sys := slices.IndexFunc(prot.Machine.Prog.Func("mmap").Code, func(in ir.Instr) bool { return in.Kind == ir.Syscall })
		forged := 0
		// Right before the wrapper's syscall, rewrite the meta word of
		// every value entry that records the length.
		if err := prot.Machine.HookFunc("mmap", sys, func(m *vm.Machine) error {
			for slot := uint64(0); slot < shadow.ValueCap; slot++ {
				at := shadow.ValueBase() + slot*24
				if v, err := m.Mem.PeekUint(at+8, 8); err != nil || v != length {
					continue
				}
				if err := m.Mem.PokeUint(at+16, shadow.MetaDigest|1<<31, 8); err != nil {
					return err
				}
				forged++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = prot.Machine.CallFunction("main")
		runtime.ReadMemStats(&after)
		if forged == 0 {
			t.Fatal("no shadow entry recorded the length")
		}
		var ke *vm.KillError
		if !errors.As(err, &ke) || ke.By != "monitor" {
			t.Fatalf("inKernel=%v: forged digest size allowed the syscall: %v", inKernel, err)
		}
		if v := prot.Monitor.Violations; len(v) != 1 || v[0].Context != monitor.ArgIntegrity || v[0].Reason != "pointee unreadable" {
			t.Fatalf("inKernel=%v: violations = %v", inKernel, v)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Fatalf("inKernel=%v: judging the forged entry allocated %d bytes on the host", inKernel, grew)
		}
	}
}

// TestForgedValueTableFailsClosed: the value table lives in guest-writable
// memory. After vsFTPd's init, every empty slot is filled with junk, so
// no lookup of a key the guest has not recorded meets an empty slot and
// no new value finds room. Under both cost settings the run must end in
// an argument-integrity kill, and the killing trap must stay within the
// per-trap worst case DESIGN.md gives: lookups stop at shadow.MaxProbe
// slots instead of reading the whole table, one charged read per slot.
func TestForgedValueTableFailsClosed(t *testing.T) {
	const junk = 1 << 62 // no guest address has this bit
	for _, inKernel := range []bool{false, true} {
		target, err := workload.NewTarget("vsftpd")
		if err != nil {
			t.Fatal(err)
		}
		art, err := core.Compile(target.Build(), core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.New(nil)
		k.Costs.IOPerByte = workload.IOPerByte("vsftpd")
		if err := target.Fixture(k); err != nil {
			t.Fatal(err)
		}
		cfg := monitor.DefaultConfig()
		cfg.InKernel = inKernel
		cfg.FlightN = 1
		prot, err := core.Launch(art, k, cfg, vm.WithMaxSteps(1<<34))
		if err != nil {
			t.Fatal(err)
		}
		if err := target.Init(prot); err != nil {
			t.Fatal(err)
		}
		sp := prot.Machine.Mem
		for slot := uint64(0); slot < shadow.ValueCap; slot++ {
			at := shadow.ValueBase() + slot*24
			if key, err := sp.PeekUint(at, 8); err != nil || key != 0 {
				continue
			}
			for i, w := range []uint64{junk | slot, 0xbad, 8} {
				if err := sp.PokeUint(at+uint64(8*i), w, 8); err != nil {
					t.Fatal(err)
				}
			}
		}
		_, err = workload.Continue(target, prot, 0, 20)
		var ke *vm.KillError
		if !errors.As(err, &ke) || ke.By != "monitor" {
			t.Fatalf("inKernel=%v: forged table did not end in a monitor kill: %v", inKernel, err)
		}
		v := prot.Monitor.Violations
		// "unreadable": the lookup stopped at the probe limit with an
		// error. An unbounded probe would have read the whole table and
		// answered a miss.
		if len(v) != 1 || v[0].Context != monitor.ArgIntegrity || !strings.Contains(v[0].Reason, "unreadable") || len(v[0].History) != 1 {
			t.Fatalf("inKernel=%v: violations = %v", inKernel, v)
		}
		var maxDigest uint64
		for slot := uint64(0); slot < shadow.ValueCap; slot++ {
			at := shadow.ValueBase() + slot*24
			key, _ := sp.PeekUint(at, 8)
			meta, _ := sp.PeekUint(at+16, 8)
			if key&junk == 0 && meta&shadow.MetaDigest != 0 {
				maxDigest = max(maxDigest, meta&shadow.MetaSizeMask)
			}
		}
		kill := v[0].History[0]
		bound := trapBound(prot.Monitor, k.Costs, inKernel, maxDigest)
		if cycles := kill.End - kill.Start; cycles > bound {
			t.Fatalf("inKernel=%v: killing trap cost %d cycles, documented bound %d", inKernel, cycles, bound)
		}
	}
}

// trapBound is DESIGN.md's per-trap worst case for a monitor's config and
// metadata: D = MaxUnwindDepth, A = the most arguments at one syscall
// site, B = the most memory-backed arguments at one site, P =
// shadow.MaxProbe, N = the largest fixed pointee (at most 4,096 bytes)
// and S = the largest digest size in the value table.
func trapBound(m *monitor.Monitor, kc kernel.Costs, inKernel bool, maxDigest uint64) uint64 {
	mc := m.Cfg.Costs
	fetch, base := mc.TrapRoundTrip+kc.GetRegs, kc.ReadMemBase
	if inKernel {
		fetch, base = kernel.InKernelFetch, 0
	}
	read := func(n uint64) uint64 { return base + kc.ReadMemPerWord*((n+7)/8) }
	w := read(8)
	lookup := (shadow.MaxProbe + 2) * w
	var a, b, n uint64
	for _, site := range m.Generation().Meta.ArgSites {
		a = max(a, uint64(len(site.Args)))
		var mem uint64
		for _, spec := range site.Args {
			if spec.Kind == metadata.ArgMem {
				mem++
				if spec.Deref {
					n = max(n, uint64(min(max(spec.Size, 0), 4096)))
				}
			}
		}
		b = max(b, mem)
	}
	pp := mc.PointeePerByte
	pointee := max(
		read(n)+pp*n+n*lookup,
		lookup+4*read(64)+256*pp+256*lookup,
		lookup+read(maxDigest)+pp*maxDigest,
	)
	d := uint64(m.Cfg.MaxUnwindDepth)
	return fetch + 2*d*w + mc.SFCheck + mc.CTCheck + mc.CFPerFrame*(d+1) +
		a*(mc.AIPerArg+lookup+pointee) + (d-1)*b*(mc.AIPerArg+2*lookup+w)
}
