package monitor

import (
	"testing"

	"bastion/internal/core/metadata"
	"bastion/internal/kernel"
	"bastion/internal/seccomp"
)

// offloadMeta builds a minimal metadata set: one callable fs syscall
// (read) with the given argument sites.
func offloadMeta(sites map[uint64]metadata.ArgSite) *metadata.Metadata {
	meta := metadata.New()
	meta.CallTypes[kernel.SysRead] = metadata.CallType{
		Nr: kernel.SysRead, Name: "read", Wrapper: "read", Direct: true,
	}
	for addr, site := range sites {
		meta.ArgSites[addr] = site
	}
	return meta
}

func offloadUnitCfg() Config {
	cfg := DefaultConfig()
	cfg.Mode = ModeFull
	cfg.Contexts = CallType | ArgIntegrity
	cfg.ExtendFS = true
	cfg.Offload = true
	return cfg
}

// TestConstMatchesBranches exercises every way a syscall stays on the
// trap path: memory-backed specs, pointee derefs, out-of-range
// positions, and disagreeing sites — and the ways it qualifies: no AI,
// no sites, and uniform constant sites.
func TestConstMatchesBranches(t *testing.T) {
	constSite := func(pos int, val int64) metadata.ArgSite {
		return metadata.ArgSite{
			IsSyscall: true, SyscallNr: kernel.SysRead,
			Args: []metadata.ArgSpec{{Pos: pos, Kind: metadata.ArgConst, Const: val}},
		}
	}
	cases := []struct {
		name    string
		sites   map[uint64]metadata.ArgSite
		want    []seccomp.ArgMatch
		offload bool
	}{
		{"no sites", nil, nil, true},
		{"uniform const", map[uint64]metadata.ArgSite{
			0x10: constSite(1, 3),
			0x20: constSite(1, 3),
		}, []seccomp.ArgMatch{{Pos: 0, Val: 3}}, true},
		{"disagreeing sites", map[uint64]metadata.ArgSite{
			0x10: constSite(1, 3),
			0x20: constSite(1, 4),
		}, nil, false},
		{"memory-backed", map[uint64]metadata.ArgSite{
			0x10: {IsSyscall: true, SyscallNr: kernel.SysRead,
				Args: []metadata.ArgSpec{{Pos: 2, Kind: metadata.ArgMem, Size: 8}}},
		}, nil, false},
		{"pointee deref", map[uint64]metadata.ArgSite{
			0x10: {IsSyscall: true, SyscallNr: kernel.SysRead,
				Args: []metadata.ArgSpec{{Pos: 2, Kind: metadata.ArgConst, Const: 7, Deref: true}}},
		}, nil, false},
		{"position out of range", map[uint64]metadata.ArgSite{
			0x10: constSite(7, 3),
		}, nil, false},
		{"other syscall ignored", map[uint64]metadata.ArgSite{
			0x10: {IsSyscall: true, SyscallNr: kernel.SysWrite,
				Args: []metadata.ArgSpec{{Pos: 1, Kind: metadata.ArgMem}}},
		}, nil, true},
		{"non-syscall site ignored", map[uint64]metadata.ArgSite{
			0x10: {IsSyscall: false,
				Args: []metadata.ArgSpec{{Pos: 1, Kind: metadata.ArgMem}}},
		}, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			meta := offloadMeta(tc.sites)
			matches, ok := constMatches(meta, offloadUnitCfg(), kernel.SysRead)
			if ok != tc.offload {
				t.Fatalf("offloadable = %v, want %v", ok, tc.offload)
			}
			if len(matches) != len(tc.want) {
				t.Fatalf("matches = %v, want %v", matches, tc.want)
			}
			for i := range matches {
				if matches[i] != tc.want[i] {
					t.Fatalf("matches = %v, want %v", matches, tc.want)
				}
			}
			plan := DeriveOffload(meta, offloadUnitCfg())
			if _, has := plan.Rules[kernel.SysRead]; has != tc.offload {
				t.Fatalf("read in plan = %v, want %v", has, tc.offload)
			}
		})
	}

	// AI disabled: argument values are never checked, so the plan carries
	// a plain in-filter allow regardless of the sites.
	cfg := offloadUnitCfg()
	cfg.Contexts = CallType
	meta := offloadMeta(map[uint64]metadata.ArgSite{0x10: {
		IsSyscall: true, SyscallNr: kernel.SysRead,
		Args: []metadata.ArgSpec{{Pos: 2, Kind: metadata.ArgMem}},
	}})
	matches, ok := constMatches(meta, cfg, kernel.SysRead)
	if !ok || matches != nil {
		t.Fatalf("AI-disabled constMatches = %v, %v; want nil, true", matches, ok)
	}

	// Not-callable syscalls keep their in-filter kill: never offloaded.
	meta = offloadMeta(nil)
	meta.CallTypes[kernel.SysRead] = metadata.CallType{Nr: kernel.SysRead, Name: "read"}
	if _, has := DeriveOffload(meta, offloadUnitCfg()).Rules[kernel.SysRead]; has {
		t.Fatal("not-callable syscall offloaded")
	}
}

// TestSyscallFlowDisqualifiesOffload: the SF context keeps cross-trap
// transition state, so any context set containing it must derive an empty
// plan — an in-filter allow would let execution advance without advancing
// that state, and the per-nr RET_LOG aggregates cannot replay ordering.
func TestSyscallFlowDisqualifiesOffload(t *testing.T) {
	meta := offloadMeta(nil) // read callable, no sites: offloadable baseline
	base := offloadUnitCfg()
	if _, has := DeriveOffload(meta, base).Rules[kernel.SysRead]; !has {
		t.Fatal("baseline config should offload read")
	}
	for _, ctx := range []Context{
		SyscallFlow,
		CallType | ArgIntegrity | SyscallFlow,
		AllContexts,
	} {
		cfg := base
		cfg.Contexts = ctx
		if plan := DeriveOffload(meta, cfg); len(plan.Rules) != 0 {
			t.Errorf("contexts %v derived rules for %v; SF must keep every trap",
				ctx, plan.Offloaded())
		}
	}
}
