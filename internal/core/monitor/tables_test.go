package monitor_test

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/binscan"
	"bastion/internal/core/metadata"
	"bastion/internal/core/monitor"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/seccomp"
	"bastion/internal/workload"
)

// funcAtScan is the reference address→function resolution: a linear scan
// of the function ranges. Validate keeps the ranges disjoint, so the
// answer does not depend on map order.
func funcAtScan(meta *metadata.Metadata, addr uint64) string {
	for name, fi := range meta.Funcs {
		if addr >= fi.Entry && addr < fi.End {
			return name
		}
	}
	return ""
}

// genCase is one compiled generation with the reference projection of its
// syscall-flow graph.
type genCase struct {
	name  string
	g     *monitor.Generation
	start map[uint32]bool
	edges map[[2]uint32]bool
}

// flowOracle projects g's flow graph onto the syscalls g's policy traps,
// with maps: a trapped syscall opens the flow, or follows a trapped one,
// when a path reaches it through untrapped syscalls only.
func flowOracle(g *monitor.Generation) (start map[uint32]bool, edges map[[2]uint32]bool) {
	start, edges = map[uint32]bool{}, map[[2]uint32]bool{}
	fg := g.Meta.SyscallFlow
	if g.Policy.Contexts&monitor.SyscallFlow == 0 || g.Mode != monitor.ModeFull || fg.Empty() {
		return start, edges
	}
	trapped := func(nr uint32) bool { return g.Seccomp.Actions[nr] == seccomp.RetTrace }
	reach := func(from metadata.NrSet) map[uint32]bool {
		out, seen := map[uint32]bool{}, map[uint32]bool{}
		var walk func(nr uint32)
		walk = func(nr uint32) {
			if seen[nr] {
				return
			}
			seen[nr] = true
			if trapped(nr) {
				out[nr] = true
				return
			}
			for next := range fg.Edges[nr] {
				walk(next)
			}
		}
		for nr := range from {
			walk(nr)
		}
		return out
	}
	start = reach(fg.Start)
	for prev := range fg.Nodes {
		if trapped(prev) {
			for next := range reach(fg.Edges[prev]) {
				edges[[2]uint32{prev, next}] = true
			}
		}
	}
	return start, edges
}

// compileCases compiles meta under the default configuration and with the
// file-system extension and the tree filter, checking that a second
// compile of the latter is deeply equal: the tables are built in sorted
// order, never map order.
func compileCases(tb testing.TB, name string, meta *metadata.Metadata) []genCase {
	tb.Helper()
	cfg := monitor.DefaultConfig()
	g, err := monitor.NewGeneration(0, meta, cfg)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	cfg.ExtendFS, cfg.TreeFilter = true, true
	fsTree, err := monitor.NewGeneration(0, meta, cfg)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	again, err := monitor.NewGeneration(0, meta, cfg)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(fsTree, again) {
		tb.Fatalf("%s: two compiles of one metadata and policy differ", name)
	}
	var out []genCase
	for _, c := range []genCase{{name: name, g: g}, {name: name + "+fs,tree", g: fsTree}} {
		c.start, c.edges = flowOracle(c.g)
		out = append(out, c)
	}
	return out
}

// handMeta is metadata that exercises the tables' edge cases: an empty
// range, adjacent and gapped ranges, a callsite whose caller has no range,
// an indirect target with no range, and a call type and AllowedIndirect
// entry for an unimplemented syscall, answered through the overflow slot.
func handMeta() *metadata.Metadata {
	m := metadata.New()
	m.Entry = "main"
	m.Funcs["main"] = metadata.FuncInfo{Name: "main", Entry: 0x400000, End: 0x400040}
	m.Funcs["f"] = metadata.FuncInfo{Name: "f", Entry: 0x400100, End: 0x400140}
	m.Funcs["g"] = metadata.FuncInfo{Name: "g", Entry: 0x400140, End: 0x400180}
	m.Funcs["e"] = metadata.FuncInfo{Name: "e", Entry: 0x400190, End: 0x400190}
	m.Funcs["h"] = metadata.FuncInfo{Name: "h", Entry: 0x400200, End: 0x400210}
	m.CallTypes[kernel.SysExecve] = metadata.CallType{Nr: kernel.SysExecve, Name: "execve", Wrapper: "g", Direct: true}
	m.CallTypes[kernel.SysMprotect] = metadata.CallType{Nr: kernel.SysMprotect, Name: "mprotect", Wrapper: "h", Direct: true, Indirect: true}
	m.CallTypes[999] = metadata.CallType{Nr: 999, Name: "sys_999", Wrapper: "h", Indirect: true}
	m.Callsites[0x400104] = metadata.Callsite{Addr: 0x400100, RetAddr: 0x400104, Caller: "f", Kind: metadata.SiteDirect, Target: "g"}
	m.Callsites[0x400110] = metadata.Callsite{Addr: 0x40010c, RetAddr: 0x400110, Caller: "f", Kind: metadata.SiteIndirect}
	m.Callsites[0x400004] = metadata.Callsite{Addr: 0x400000, RetAddr: 0x400004, Caller: "main", Kind: metadata.SiteDirect, Target: "f"}
	m.Callsites[0x400304] = metadata.Callsite{Addr: 0x400300, RetAddr: 0x400304, Caller: "stub", Kind: metadata.SiteDirect, Target: "h"}
	m.ValidCallers["g"] = metadata.NameSet{"f": true}
	m.ValidCallers["f"] = metadata.NameSet{"other": true}
	m.IndirectTargets["h"] = true
	m.IndirectTargets["unmapped"] = true
	m.AllowedIndirect[kernel.SysMprotect] = metadata.AddrSet{0x40010c: true, 0x400100: false}
	m.AllowedIndirect[kernel.SysExecve] = metadata.AddrSet{}
	m.AllowedIndirect[999] = metadata.AddrSet{0x40010c: true}
	m.ArgSites[0x400100] = metadata.ArgSite{Addr: 0x400100, Caller: "f", Target: "g", SyscallNr: kernel.SysExecve, IsSyscall: true,
		Args: []metadata.ArgSpec{{Pos: 1, Kind: metadata.ArgMem, Size: 8, Deref: true}, {Pos: 2, Kind: metadata.ArgConst, Const: -1}}}
	m.ArgSites[0x400000] = metadata.ArgSite{Addr: 0x400000, Caller: "main", Target: "f",
		Args: []metadata.ArgSpec{{Pos: 1, Kind: metadata.ArgMem, Size: 4}}}
	m.SyscallFlow.AddStart(kernel.SysMprotect)
	m.SyscallFlow.AddEdge(kernel.SysMprotect, kernel.SysGetpid)
	m.SyscallFlow.AddEdge(kernel.SysGetpid, kernel.SysExecve)
	m.SyscallFlow.AddEdge(kernel.SysExecve, kernel.SysMprotect)
	return m
}

var (
	appCasesOnce sync.Once
	appCases     map[string][]genCase
)

// appGenerations compiles the compiler's and binscan's metadata of every
// shipped application, once per test binary.
func appGenerations(tb testing.TB) map[string][]genCase {
	tb.Helper()
	appCasesOnce.Do(func() {
		cases := map[string][]genCase{}
		for _, app := range workload.Apps {
			target, err := workload.NewTarget(app)
			if err != nil {
				tb.Fatal(err)
			}
			art, err := core.Compile(target.Build(), core.CompileOptions{})
			if err != nil {
				tb.Fatal(err)
			}
			prog := target.Build()
			if err := prog.Link(); err != nil {
				tb.Fatal(err)
			}
			ext, err := binscan.Extract(prog)
			if err != nil {
				tb.Fatal(err)
			}
			cases[app] = append(compileCases(tb, app, art.Meta), compileCases(tb, app+"/binscan", ext.Meta)...)
		}
		appCases = cases
	})
	if appCases == nil {
		tb.Fatal("compiling the applications failed")
	}
	return appCases
}

// checkLookups requires every table lookup of c's generation at addr and
// syscall nr (with prev as the previously trapped syscall) to answer
// exactly as the metadata maps and the linear scan do.
func checkLookups(tb testing.TB, c genCase, addr uint64, nr, prev uint32) {
	tb.Helper()
	g, meta := c.g, c.g.Meta
	fn := funcAtScan(meta, addr)
	if got := g.FuncAt(addr); got != fn {
		tb.Fatalf("%s: FuncAt(%#x) = %q, scan = %q", c.name, addr, got, fn)
	}
	if got := g.IsIndirectTarget(fn); fn != "" && got != meta.IndirectTargets[fn] {
		tb.Fatalf("%s: IndirectTargets[%q] = %v, metadata %v", c.name, fn, got, !got)
	}
	got := g.Site(addr)
	if cs, ok := meta.Callsites[addr]; !ok {
		if got.Found {
			tb.Fatalf("%s: %#x resolves to a callsite the metadata lacks", c.name, addr)
		}
	} else {
		constrained, allowed := meta.CallerAllowed(cs.Target, cs.Caller)
		site, hasArgs := meta.ArgSites[cs.Addr]
		want := monitor.SiteFacts{Found: true, Kind: cs.Kind, Caller: cs.Caller, Target: cs.Target,
			CallerOK: !constrained || allowed, HasArgs: hasArgs, IsSyscall: site.IsSyscall, Args: site.Args}
		if !reflect.DeepEqual(got, want) {
			tb.Fatalf("%s: callsite %#x = %+v, metadata %+v", c.name, addr, got, want)
		}
		if g.IsIndirectTarget(cs.Caller) != meta.IndirectTargets[cs.Caller] {
			tb.Fatalf("%s: IndirectTargets[%q] differs", c.name, cs.Caller)
		}
		set, limited := meta.AllowedIndirect[nr]
		if want := !limited || set[cs.Addr]; g.IndirectAllowed(nr, addr) != want {
			tb.Fatalf("%s: AllowedIndirect for %d at %#x = %v, metadata %v", c.name, nr, cs.Addr, !want, want)
		}
	}
	ct := meta.CallTypes[nr]
	if got, want := g.CallType(nr), (metadata.CallType{Wrapper: ct.Wrapper, Direct: ct.Direct, Indirect: ct.Indirect}); got != want {
		tb.Fatalf("%s: call type of %d = %+v, metadata %+v", c.name, nr, got, want)
	}
	if g.FlowStart(nr) != c.start[nr] || g.FlowEdge(prev, nr) != c.edges[[2]uint32{prev, nr}] {
		tb.Fatalf("%s: flow start(%d) = %v, edge %d->%d = %v; projection says %v, %v",
			c.name, nr, g.FlowStart(nr), prev, nr, g.FlowEdge(prev, nr), c.start[nr], c.edges[[2]uint32{prev, nr}])
	}
}

// syscallSeeds is every implemented number, two unimplemented ones (the
// overflow slot) and the flow graph's numbers.
func syscallSeeds() []uint32 {
	nrs := []uint32{999, math.MaxUint32}
	for s := 0; s < kernel.NrSlots; s++ {
		nrs = append(nrs, kernel.SlotNr(s))
	}
	return nrs
}

// addressSeeds is every callsite key ±1 and ±InstrSize and every range
// edge ±1 of meta.
func addressSeeds(meta *metadata.Metadata) []uint64 {
	var out []uint64
	for ret := range meta.Callsites {
		out = append(out, ret-ir.InstrSize, ret-1, ret, ret+1, ret+ir.InstrSize)
	}
	for _, fi := range meta.Funcs {
		out = append(out, fi.Entry-1, fi.Entry, fi.End-1, fi.End)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestGenerationMatchesMetadata checks the hand-built edge cases at every
// seed address, syscall and previous syscall.
func TestGenerationMatchesMetadata(t *testing.T) {
	nrs := syscallSeeds()
	addrs := append(addressSeeds(handMeta()), 0, ir.CodeBase, ir.DataBase, math.MaxUint64)
	for _, c := range compileCases(t, "hand", handMeta()) {
		for _, a := range addrs {
			for _, nr := range nrs {
				for _, prev := range nrs {
					checkLookups(t, c, a, nr, prev)
				}
			}
		}
	}
}

// TestGenerationFuncAt: a generation resolves an address inside a
// function's range to it, and its end and a wild address to no function.
func TestGenerationFuncAt(t *testing.T) {
	meta := metadata.New()
	meta.Entry = "main"
	meta.Funcs["f"] = metadata.FuncInfo{Name: "f", Entry: 0x400100, End: 0x400140}
	for _, c := range compileCases(t, "f", meta) {
		for _, tc := range []struct {
			addr uint64
			want string
		}{
			{0x400100, "f"},
			{0x400120, "f"},
			{0x40013f, "f"},
			{0x400140, ""}, // end is exclusive
			{0x4000ff, ""},
			{0x1, ""}, // wild
		} {
			if got := c.g.FuncAt(tc.addr); got != tc.want {
				t.Fatalf("%s: FuncAt(%#x) = %q, want %q", c.name, tc.addr, got, tc.want)
			}
		}
	}
}

// TestGenerationMatchesMetadataOnApps sweeps every byte of each shipped
// application's code region, guard gaps and both edges included, through
// the tables of its compiled and extracted metadata.
func TestGenerationMatchesMetadataOnApps(t *testing.T) {
	cases := appGenerations(t)
	nrs := syscallSeeds()
	for _, app := range workload.Apps {
		t.Run(app, func(t *testing.T) {
			for _, c := range cases[app] {
				lo, hi := uint64(math.MaxUint64), uint64(0)
				for _, fi := range c.g.Meta.Funcs {
					lo, hi = min(lo, fi.Entry), max(hi, fi.End)
				}
				resolved := 0
				for a := lo - 32; a < hi+32; a++ {
					checkLookups(t, c, a, nrs[int(a)%len(nrs)], nrs[int(a/7)%len(nrs)])
					if _, ok := c.g.Meta.Callsites[a]; ok {
						for _, nr := range nrs {
							checkLookups(t, c, a, nr, nrs[int(a)%len(nrs)])
						}
					}
					if c.g.FuncAt(a) != "" {
						resolved++
					}
				}
				if resolved == 0 || len(c.g.Meta.Callsites) == 0 {
					t.Fatalf("%s: no function or callsite to resolve", c.name)
				}
			}
		})
	}
}

// FuzzGenerationMatchesMetadata: for any address, syscall number and
// previous syscall, every table lookup of every application's generations
// and of the hand-built edge cases answers exactly as the metadata maps,
// the linear range scan and the map-built flow projection do.
func FuzzGenerationMatchesMetadata(f *testing.F) {
	var all []genCase
	for _, app := range workload.Apps {
		all = append(all, appGenerations(f)[app]...)
	}
	all = append(all, compileCases(f, "hand", handMeta())...)
	nrs := syscallSeeds()
	for i, c := range all {
		if i%2 == 1 {
			continue // the +fs,tree case shares its metadata with the one before
		}
		for j, a := range addressSeeds(c.g.Meta) {
			f.Add(a, nrs[j%len(nrs)], nrs[(j+i)%len(nrs)])
		}
	}
	f.Add(uint64(0), uint32(999), uint32(math.MaxUint32))
	f.Add(uint64(math.MaxUint64), uint32(math.MaxUint32), uint32(999))
	f.Fuzz(func(t *testing.T, addr uint64, nr, prev uint32) {
		for _, c := range all {
			checkLookups(t, c, addr, nr, prev)
		}
	})
}

// TestNewGenerationRefusesUnindexableMetadata: a function range the tables
// could not index — here 2^40 bytes — fails closed at compile time
// instead of sizing a table by it.
func TestNewGenerationRefusesUnindexableMetadata(t *testing.T) {
	meta := handMeta()
	meta.Funcs["huge"] = metadata.FuncInfo{Name: "huge", Entry: 0x400400, End: 0x400400 + 1<<40}
	_, err := monitor.NewGeneration(0, meta, monitor.DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "code region") {
		t.Fatalf("NewGeneration accepted a 2^40-byte range: %v", err)
	}
}

// TestNewGenerationRefusesTooManyNames: metadata naming more functions
// than a uint16 name index can hold fails closed at compile time, and one
// name fewer compiles.
func TestNewGenerationRefusesTooManyNames(t *testing.T) {
	meta := metadata.New()
	meta.Entry = "f0"
	for i := range math.MaxUint16 + 1 {
		name := "f" + strconv.Itoa(i)
		a := ir.CodeBase + uint64(i)*ir.InstrSize
		meta.Funcs[name] = metadata.FuncInfo{Name: name, Entry: a, End: a}
	}
	// With "" the table needs 65,537 names.
	_, err := monitor.NewGeneration(0, meta, monitor.DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "name table") {
		t.Fatalf("NewGeneration accepted %d names: %v", len(meta.Funcs)+1, err)
	}
	delete(meta.Funcs, "f1")
	if _, err := monitor.NewGeneration(0, meta, monitor.DefaultConfig()); err != nil {
		t.Fatalf("NewGeneration refused %d names: %v", len(meta.Funcs)+1, err)
	}
}

// TestOverflowSlotRendersPooledRow: a trap of an unimplemented number
// counts in the overflow slot, which the registry renders as one pooled
// "other" row and histogram, never as a row per number.
func TestOverflowSlotRendersPooledRow(t *testing.T) {
	prot := launch(t, monitor.DefaultConfig())
	if _, err := prot.Machine.CallFunction("main"); err != nil {
		t.Fatal(err)
	}
	mon, proc := prot.Monitor, prot.Proc
	for _, nr := range []uint32{999, math.MaxUint32} {
		proc.M.SysRegs.RAX = uint64(nr)
		if err := mon.Trap(proc); err == nil {
			t.Fatalf("trap of unimplemented %d allowed", nr)
		}
	}
	if mon.ChecksByNr[kernel.NrSlots] != 2 || mon.ChecksByNr.Of(999) != 2 {
		t.Fatalf("overflow checks = %d", mon.ChecksByNr[kernel.NrSlots])
	}
	out := mon.Metrics.Render()
	for _, want := range []string{"monitor_checks_total[other]", "monitor_trap_cycles[other]"} {
		if !strings.Contains(out, want) {
			t.Errorf("registry lacks %s", want)
		}
	}
	if strings.Contains(out, "sys_") {
		t.Errorf("registry renders a per-number row:\n%s", out)
	}
}
