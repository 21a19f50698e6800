package vm

import (
	"testing"

	"bastion/internal/ir"
	"bastion/internal/mem"
)

// buildSpinner returns a program whose main executes roughly n simple
// instructions.
func buildSpinner(n int64) *ir.Program {
	p := ir.NewProgram()
	b := ir.NewBuilder("main", 0)
	i := b.Const(0)
	b.Label("loop")
	c := b.Bin(ir.OpLt, ir.R(i), ir.Imm(n))
	done := b.Bin(ir.OpEq, ir.R(c), ir.Imm(0))
	b.BranchNZ(ir.R(done), "end")
	b.BinInto(i, ir.OpAdd, ir.R(i), ir.Imm(1))
	b.Jump("loop")
	b.Label("end")
	b.Ret(ir.R(i))
	p.AddFunc(b.Build())
	return p
}

// buildCallChain returns a program whose main makes 20 chained calls to a
// two-parameter leaf that reads a spilled parameter back from its frame.
func buildCallChain() *ir.Program {
	p := ir.NewProgram()
	leaf := ir.NewBuilder("leaf", 2)
	v := leaf.LoadLocal("p0")
	leaf.Ret(ir.R(v))
	p.AddFunc(leaf.Build())
	mb := ir.NewBuilder("main", 0)
	mb.Local("x", 64)
	r := mb.Call("leaf", ir.Imm(1), ir.Imm(2))
	for i := 0; i < 19; i++ {
		r = mb.Call("leaf", ir.R(r), ir.Imm(2))
	}
	mb.Ret(ir.R(r))
	p.AddFunc(mb.Build())
	return p
}

// buildMemoryMix returns a program whose main loads and stores words of
// widths 1 to 8 in a loop, on its stack frame, in a global and on the
// heap at ir.HeapBase, which the caller maps.
func buildMemoryMix() *ir.Program {
	p := ir.NewProgram()
	p.AddGlobal(&ir.Global{Name: "g", Size: 256})
	mb := ir.NewBuilder("main", 0)
	mb.Local("buf", 256)
	i := mb.Const(0)
	mb.Label("loop")
	done := mb.Bin(ir.OpGe, ir.R(i), ir.Imm(256))
	mb.BranchNZ(ir.R(done), "end")
	for _, base := range []ir.Reg{mb.Lea("buf", 0), mb.GlobalLea("g", 0), mb.Const(int64(ir.HeapBase))} {
		a := mb.Bin(ir.OpAdd, ir.R(base), ir.R(i))
		for _, w := range []int64{1, 2, 4, 8} {
			mb.Store(a, 0, ir.R(i), w)
			mb.Load(a, 0, w)
		}
	}
	mb.BinInto(i, ir.OpAdd, ir.R(i), ir.Imm(8))
	mb.Jump("loop")
	mb.Label("end")
	mb.Ret(ir.R(i))
	p.AddFunc(mb.Build())
	return p
}

// benchMachine links p and returns an unbounded machine for it.
func benchMachine(tb testing.TB, p *ir.Program) *Machine {
	tb.Helper()
	if err := p.Link(); err != nil {
		tb.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	m.MaxSteps = 0
	return m
}

// BenchmarkInterpreterALU measures raw interpreter throughput.
func BenchmarkInterpreterALU(b *testing.B) {
	m := benchMachine(b, buildSpinner(1000))
	b.ReportAllocs()
	b.SetBytes(1000 * 5) // ~5 instructions per iteration
	for i := 0; i < b.N; i++ {
		if _, err := m.CallFunction("main"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallReturn measures memory-realized frame push/pop cost.
func BenchmarkCallReturn(b *testing.B) {
	m := benchMachine(b, buildCallChain())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.CallFunction("main"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuestMemoryAccess measures load/store dispatch.
func BenchmarkGuestMemoryAccess(b *testing.B) {
	p := ir.NewProgram()
	p.AddGlobal(&ir.Global{Name: "g", Size: 4096})
	mb := ir.NewBuilder("main", 0)
	g := mb.GlobalLea("g", 0)
	i := mb.Const(0)
	mb.Label("loop")
	c := mb.Bin(ir.OpLt, ir.R(i), ir.Imm(256))
	d := mb.Bin(ir.OpEq, ir.R(c), ir.Imm(0))
	mb.BranchNZ(ir.R(d), "end")
	addr := mb.Bin(ir.OpAdd, ir.R(g), ir.R(i))
	mb.Store(addr, 0, ir.R(i), 8)
	mb.Load(addr, 0, 8)
	mb.BinInto(i, ir.OpAdd, ir.R(i), ir.Imm(8))
	mb.Jump("loop")
	mb.Label("end")
	mb.Ret(ir.Imm(0))
	p.AddFunc(mb.Build())
	m := benchMachine(b, p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.CallFunction("main"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHotPathAllocationFree pins the interpreter's per-instruction and
// per-call path at zero allocations: once the first call has grown the
// frame stack, a spinner and a 20-call chain run on reused register
// frames and a stack-staged argument buffer, and loads and stores on the
// stack, a global and the heap, through the word cache and its miss
// exits, allocate nothing either.
func TestHotPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name string
		prog *ir.Program
	}{
		{"spinner", buildSpinner(1000)},
		{"call-chain", buildCallChain()},
		{"load-store", buildMemoryMix()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := benchMachine(t, tc.prog)
			if err := m.Mem.Map(ir.HeapBase, mem.PageSize, mem.PermRW); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := m.CallFunction("main"); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("CallFunction allocates %.2f objects per run, want 0", allocs)
			}
		})
	}
}
