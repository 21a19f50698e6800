package metadata

import (
	"strings"
	"testing"

	"bastion/internal/ir"
)

func sampleMeta() *Metadata {
	m := New()
	m.Entry = "main"
	m.CallTypes[59] = CallType{Nr: 59, Name: "execve", Wrapper: "execve", Direct: true}
	m.CallTypes[10] = CallType{Nr: 10, Name: "mprotect", Wrapper: "mprotect", Direct: true, Indirect: true}
	m.Callsites[0x400104] = Callsite{Addr: 0x400100, RetAddr: 0x400104, Caller: "f", Kind: SiteDirect, Target: "execve"}
	m.Callsites[0x400204] = Callsite{Addr: 0x400200, RetAddr: 0x400204, Caller: "g", Kind: SiteIndirect, TypeSig: "i64(i64)"}
	m.Funcs["f"] = FuncInfo{Name: "f", Entry: 0x400100, End: 0x400140}
	m.ValidCallers["execve"] = map[string]bool{"f": true}
	m.IndirectTargets["f"] = true
	m.AllowedIndirect[59] = map[uint64]bool{0x400200: true}
	m.ArgSites[0x400100] = ArgSite{
		Addr: 0x400100, Caller: "f", Target: "execve", SyscallNr: 59, IsSyscall: true,
		Args: []ArgSpec{
			{Pos: 1, Kind: ArgMem, Size: 8, Deref: true},
			{Pos: 2, Kind: ArgConst, Const: -1},
		},
	}
	return m
}

func TestCallableAndKinds(t *testing.T) {
	m := sampleMeta()
	if !m.CallTypes[59].Callable() {
		t.Error("execve not callable")
	}
	if (CallType{}).Callable() {
		t.Error("zero call type callable")
	}
	if SiteDirect.String() != "direct" || SiteIndirect.String() != "indirect" {
		t.Error("site kind strings")
	}
	if ArgConst.String() != "const" || ArgMem.String() != "mem" {
		t.Error("arg kind strings")
	}
}

func TestCallerAllowed(t *testing.T) {
	m := sampleMeta()
	constrained, allowed := m.CallerAllowed("execve", "f")
	if !constrained || !allowed {
		t.Fatalf("f->execve = %v,%v", constrained, allowed)
	}
	constrained, allowed = m.CallerAllowed("execve", "attacker")
	if !constrained || allowed {
		t.Fatalf("attacker->execve = %v,%v", constrained, allowed)
	}
	constrained, allowed = m.CallerAllowed("strlen", "anything")
	if constrained || !allowed {
		t.Fatalf("unconstrained = %v,%v", constrained, allowed)
	}
}

// TestCoarseIndirect: the projection swaps in the coarse indirect-call
// sets on a copy, leaves the receiver untouched, validates, and is the
// identity on metadata that has no coarse sets.
func TestCoarseIndirect(t *testing.T) {
	m := sampleMeta()
	if got := m.CoarseIndirect(); got != m {
		t.Fatal("metadata without coarse sets must project onto itself")
	}
	m.AllowedIndirectCoarse = NrAddrSets{59: AddrSet{0x400200: true, 0x400204: true}}
	c := m.CoarseIndirect()
	if c == m {
		t.Fatal("projection returned the receiver")
	}
	if !c.AllowedIndirect[59][0x400204] || len(c.AllowedIndirect[59]) != 2 {
		t.Fatalf("projected AllowedIndirect = %v, want the coarse set", c.AllowedIndirect)
	}
	if len(m.AllowedIndirect[59]) != 1 {
		t.Fatalf("receiver mutated: AllowedIndirect = %v", m.AllowedIndirect)
	}
	if len(c.Callsites) != len(m.Callsites) || c.Entry != m.Entry {
		t.Fatal("projection dropped non-indirect facts")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("projection does not validate: %v", err)
	}
}

func TestSerializationPreservesEverything(t *testing.T) {
	m := sampleMeta()
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Entry != "main" {
		t.Error("entry lost")
	}
	ct := back.CallTypes[10]
	if !ct.Direct || !ct.Indirect || ct.Name != "mprotect" {
		t.Errorf("call type lost: %+v", ct)
	}
	cs := back.Callsites[0x400204]
	if cs.Kind != SiteIndirect || cs.TypeSig != "i64(i64)" {
		t.Errorf("callsite lost: %+v", cs)
	}
	if !back.AllowedIndirect[59][0x400200] {
		t.Error("allowed-indirect lost")
	}
	site := back.ArgSites[0x400100]
	if len(site.Args) != 2 || !site.Args[0].Deref || site.Args[1].Const != -1 {
		t.Errorf("arg site lost: %+v", site)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestValidateRejectsOutOfRangeArgPositions(t *testing.T) {
	for _, pos := range []int{0, -1, 7, 99} {
		m := sampleMeta()
		site := m.ArgSites[0x400100]
		site.Args = append(site.Args, ArgSpec{Pos: pos, Kind: ArgConst, Const: 1})
		m.ArgSites[0x400100] = site
		err := m.Validate()
		if err == nil {
			t.Fatalf("pos %d accepted", pos)
		}
		if !strings.Contains(err.Error(), "1..6") {
			t.Fatalf("pos %d: unexpected error %v", pos, err)
		}
		// A malformed sidecar must fail at load time, too.
		data, merr := m.Marshal()
		if merr != nil {
			t.Fatal(merr)
		}
		if _, err := Unmarshal(data); err == nil {
			t.Fatalf("pos %d: sidecar accepted by Unmarshal", pos)
		}
	}
	if err := sampleMeta().Validate(); err != nil {
		t.Fatalf("valid metadata rejected: %v", err)
	}
}

func TestValidateRejectsDuplicateIndirectEdges(t *testing.T) {
	cases := []struct {
		name string
		site IndirectSite
		want string
	}{
		{
			name: "refined",
			site: IndirectSite{Addr: 0x400200, Caller: "g", Targets: []string{"f", "f"}, Coarse: []string{"f"}},
			want: "duplicate refined target",
		},
		{
			name: "coarse",
			site: IndirectSite{Addr: 0x400200, Caller: "g", Targets: []string{"f"}, Coarse: []string{"f", "h", "f"}},
			want: "duplicate coarse target",
		},
	}
	for _, tc := range cases {
		m := sampleMeta()
		m.IndirectSites = map[uint64]IndirectSite{tc.site.Addr: tc.site}
		err := m.Validate()
		if err == nil {
			t.Fatalf("%s: duplicate edge accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		}
		// Fail closed at sidecar load time, too.
		data, merr := m.Marshal()
		if merr != nil {
			t.Fatal(merr)
		}
		if _, err := Unmarshal(data); err == nil {
			t.Fatalf("%s: sidecar with duplicate edge accepted by Unmarshal", tc.name)
		}
	}
	// The duplicate-free form of the same site must pass.
	m := sampleMeta()
	m.IndirectSites = map[uint64]IndirectSite{
		0x400200: {Addr: 0x400200, Caller: "g", Targets: []string{"f"}, Coarse: []string{"f", "h"}},
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("duplicate-free site rejected: %v", err)
	}
}

func TestUnmarshalRejectsFlowEdgeToAbsentNode(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*FlowGraph)
		want   string
	}{
		{
			name:   "edge target",
			mutate: func(g *FlowGraph) { g.Edges[59] = NrSet{231: true} },
			want:   "target is not a node",
		},
		{
			name:   "edge source",
			mutate: func(g *FlowGraph) { g.Edges[231] = NrSet{59: true} },
			want:   "edge source 231",
		},
		{
			name:   "start",
			mutate: func(g *FlowGraph) { g.Start[231] = true },
			want:   "is not a node",
		},
	}
	for _, tc := range cases {
		m := sampleMeta()
		m.SyscallFlow.AddStart(59)
		tc.mutate(m.SyscallFlow)
		err := m.Validate()
		if err == nil {
			t.Fatalf("%s: dangling flow reference accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		}
		data, merr := m.Marshal()
		if merr != nil {
			t.Fatal(merr)
		}
		if _, err := Unmarshal(data); err == nil {
			t.Fatalf("%s: sidecar with dangling flow reference accepted by Unmarshal", tc.name)
		}
	}
}

func TestValidateRejectsNegativeSize(t *testing.T) {
	m := sampleMeta()
	site := m.ArgSites[0x400100]
	site.Args[0].Size = -8
	m.ArgSites[0x400100] = site
	if err := m.Validate(); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestSummaryMentionsSyscalls(t *testing.T) {
	s := sampleMeta().Summary()
	for _, want := range []string{"execve", "mprotect", "direct+indirect", "2 callable syscalls"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestValidateRejectsMalformedFuncRanges(t *testing.T) {
	cases := []struct {
		name string
		fi   FuncInfo
		want string
	}{
		{"inverted", FuncInfo{Name: "g", Entry: 0x400200, End: 0x4001f0}, "past end"},
		{"overlap-tail", FuncInfo{Name: "g", Entry: 0x400130, End: 0x400180}, "overlaps"},
		{"overlap-head", FuncInfo{Name: "g", Entry: 0x4000f0, End: 0x400104}, "overlaps"},
		{"nested", FuncInfo{Name: "g", Entry: 0x400110, End: 0x400120}, "overlaps"},
		{"same", FuncInfo{Name: "g", Entry: 0x400100, End: 0x400140}, "overlaps"},
	}
	for _, tc := range cases {
		m := sampleMeta()
		m.Funcs["g"] = tc.fi
		err := m.Validate()
		if err == nil {
			t.Fatalf("%s: range %+v accepted", tc.name, tc.fi)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		}
		// An overlapping sidecar makes address resolution depend on map
		// order: fail closed at load time.
		data, merr := m.Marshal()
		if merr != nil {
			t.Fatal(merr)
		}
		if _, err := Unmarshal(data); err == nil {
			t.Fatalf("%s: sidecar accepted by Unmarshal", tc.name)
		}
	}
	// Adjacent (end is exclusive) and empty ranges are well formed.
	m := sampleMeta()
	m.Funcs["g"] = FuncInfo{Name: "g", Entry: 0x400140, End: 0x400180}
	m.Funcs["e"] = FuncInfo{Name: "e", Entry: 0x400120, End: 0x400120}
	if err := m.Validate(); err != nil {
		t.Fatalf("adjacent and empty ranges rejected: %v", err)
	}
}

// TestValidateRejectsUnindexableAddresses: the monitor indexes callsites
// and function ranges by instruction slot, so Validate refuses any
// callsite key or function range it could not index — outside the code
// region, off the instruction grid, or a key that is not its call's
// return address — and accepts the region's edges.
func TestValidateRejectsUnindexableAddresses(t *testing.T) {
	const code, data = ir.CodeBase, ir.DataBase
	cases := []struct {
		name  string
		mut   func(m *Metadata)
		valid bool
	}{
		{"key-not-retaddr", func(m *Metadata) {
			m.Callsites[0x400304] = Callsite{Addr: 0x400300, RetAddr: 0x400308}
		}, false},
		{"key-past-call", func(m *Metadata) {
			m.Callsites[0x400308] = Callsite{Addr: 0x400300, RetAddr: 0x400308}
		}, false},
		{"key-below-code", func(m *Metadata) {
			m.Callsites[0x3004] = Callsite{Addr: 0x3000, RetAddr: 0x3004}
		}, false},
		{"key-at-data", func(m *Metadata) {
			m.Callsites[data] = Callsite{Addr: data - ir.InstrSize, RetAddr: data}
		}, false},
		{"key-unaligned", func(m *Metadata) {
			m.Callsites[0x400302] = Callsite{Addr: 0x4002fe, RetAddr: 0x400302}
		}, false},
		{"key-wraps", func(m *Metadata) {
			m.Callsites[2] = Callsite{Addr: ^uint64(1), RetAddr: 2}
		}, false},
		{"func-below-code", func(m *Metadata) {
			m.Funcs["g"] = FuncInfo{Name: "g", Entry: code - 0x40, End: code + 0x40}
		}, false},
		{"func-2^40-bytes", func(m *Metadata) {
			m.Funcs["g"] = FuncInfo{Name: "g", Entry: 0x400200, End: 0x400200 + 1<<40}
		}, false},
		{"func-past-data", func(m *Metadata) {
			m.Funcs["g"] = FuncInfo{Name: "g", Entry: data - 0x40, End: data + ir.InstrSize}
		}, false},
		{"func-unaligned-entry", func(m *Metadata) {
			m.Funcs["g"] = FuncInfo{Name: "g", Entry: 0x400202, End: 0x400240}
		}, false},
		{"func-unaligned-end", func(m *Metadata) {
			m.Funcs["g"] = FuncInfo{Name: "g", Entry: 0x400200, End: 0x400241}
		}, false},
		{"region-edges", func(m *Metadata) {
			m.Funcs["first"] = FuncInfo{Name: "first", Entry: code, End: code + 0x40}
			m.Funcs["last"] = FuncInfo{Name: "last", Entry: data - 0x40, End: data}
			m.Callsites[code+ir.InstrSize] = Callsite{Addr: code, RetAddr: code + ir.InstrSize}
			m.Callsites[data-ir.InstrSize] = Callsite{Addr: data - 2*ir.InstrSize, RetAddr: data - ir.InstrSize}
		}, true},
	}
	for _, tc := range cases {
		m := sampleMeta()
		tc.mut(m)
		err := m.Validate()
		if tc.valid {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		raw, merr := m.Marshal()
		if merr != nil {
			t.Fatal(merr)
		}
		if _, err := Unmarshal(raw); err == nil {
			t.Errorf("%s: sidecar accepted by Unmarshal", tc.name)
		}
	}
}
