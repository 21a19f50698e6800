package monitor

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"bastion/internal/core/metadata"
	"bastion/internal/ir"
	"bastion/internal/kernel"
)

// tables is the dense form of the metadata facts a trap reads: callsites
// and function ranges indexed by instruction slot, (addr-base)/InstrSize,
// call types indexed by syscall slot (kernel.Slot), and function names
// referred to by index. A trap resolves every lookup by indexing an
// array, never by hashing. The tables are a pure function of the
// metadata, built in sorted order, so two builds from one metadata are
// deeply equal. Validate bounds every slot index to the code region.
//
// Syscall numbers outside kernel.Names share the overflow slot, which no
// table holds: their rare lookups consult the metadata maps.
type tables struct {
	// names is every function name the function ranges, callsites and
	// call types mention, in that order of first mention, with "" first;
	// the tables refer to a name by its index, so "" (index 0) also
	// stands for "no function".
	names []string
	// funcAt maps the instruction slot of funcBase+i*InstrSize to the
	// name index of the function whose range holds it.
	funcBase uint64
	funcAt   []uint16
	// siteAt maps the instruction slot of siteBase+i*InstrSize to 1 + the
	// index in sites of the callsite returning there, or 0.
	siteBase uint64
	siteAt   []uint16
	sites    []siteEntry
	// indirect is IndirectTargets as a bitset over name indexes.
	indirect []uint64
	// callTypes holds the call type of each implemented syscall by slot.
	callTypes [kernel.NrSlots]callType
	// constrained marks the syscall slots with an AllowedIndirect entry.
	constrained uint64
}

// siteEntry is one callsite's facts, keyed by its return address.
type siteEntry struct {
	// allowed marks the syscall slots whose AllowedIndirect set lists the
	// callsite's call instruction.
	allowed uint64
	// args is the argument record of the call instruction, when hasArgs.
	args []metadata.ArgSpec
	// caller and target are name indexes.
	caller, target uint16
	kind           metadata.SiteKind
	// callerOK is CallerAllowed(target, caller): false only when the
	// target is constrained and the caller is not a valid caller of it.
	callerOK           bool
	hasArgs, isSyscall bool
}

// callType is a metadata.CallType with the wrapper as a name index; the
// zero value is a syscall without one.
type callType struct {
	wrapper          uint16
	direct, indirect bool
}

// buildTables compiles the tables of metadata that Validate accepted.
// Every step walks the metadata in an order fixed by addresses and
// syscall numbers, never map order, so two builds are deeply equal. Names
// are numbered in order of first mention instead of sorted: a build costs
// a few integer sorts and one map probe per mention.
func buildTables(meta *metadata.Metadata) (*tables, error) {
	if len(meta.Callsites) > math.MaxUint16 {
		return nil, fmt.Errorf("monitor: %d callsites exceed the callsite table's %d", len(meta.Callsites), math.MaxUint16)
	}
	t := &tables{names: make([]string, 1, 1+len(meta.Funcs))}
	index := make(map[string]uint16, 1+len(meta.Funcs))
	index[""] = 0
	full := false
	intern := func(name string) uint16 {
		i, ok := index[name]
		if !ok {
			if len(t.names) > math.MaxUint16 {
				full = true
				return 0
			}
			i = uint16(len(t.names))
			index[name] = i
			t.names = append(t.names, name)
		}
		return i
	}

	// Functions by range: Validate made the non-empty ranges disjoint, and
	// empty ones tie-break by name.
	type fn struct {
		entry, end uint64
		name       string
		idx        uint16
	}
	funcs := make([]fn, 0, len(meta.Funcs))
	for name, fi := range meta.Funcs {
		funcs = append(funcs, fn{entry: fi.Entry, end: fi.End, name: name})
	}
	slices.SortFunc(funcs, func(a, b fn) int {
		if a.entry != b.entry {
			return cmp.Compare(a.entry, b.entry)
		}
		if a.end != b.end {
			return cmp.Compare(a.end, b.end)
		}
		return strings.Compare(a.name, b.name)
	})
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range funcs {
		f := &funcs[i]
		f.idx = intern(f.name)
		if f.entry != f.end {
			lo, hi = min(lo, f.entry), max(hi, f.end)
		}
	}
	if lo < hi {
		t.funcBase = lo
		t.funcAt = make([]uint16, (hi-lo)/ir.InstrSize)
		for _, f := range funcs {
			for a := f.entry; a < f.end; a += ir.InstrSize {
				t.funcAt[(a-lo)/ir.InstrSize] = f.idx
			}
		}
	}

	rets := make([]uint64, 0, len(meta.Callsites))
	for ret := range meta.Callsites {
		rets = append(rets, ret)
	}
	slices.Sort(rets)
	if len(rets) > 0 {
		t.siteBase = rets[0]
		t.siteAt = make([]uint16, (rets[len(rets)-1]-rets[0])/ir.InstrSize+1)
		t.sites = make([]siteEntry, len(rets))
	}
	for i, ret := range rets {
		cs := meta.Callsites[ret]
		e := &t.sites[i]
		e.caller, e.target, e.kind = intern(cs.Caller), intern(cs.Target), cs.Kind
		constrained, allowed := meta.CallerAllowed(cs.Target, cs.Caller)
		e.callerOK = !constrained || allowed
		if site, ok := meta.ArgSites[cs.Addr]; ok {
			e.args, e.hasArgs, e.isSyscall = site.Args, true, site.IsSyscall
		}
		t.siteAt[(ret-t.siteBase)/ir.InstrSize] = uint16(i + 1)
	}

	// AllowedIndirect lists call instructions; Validate made each
	// callsite's key its call's address + InstrSize.
	for nr, set := range meta.AllowedIndirect {
		s := kernel.Slot(nr)
		if s == kernel.NrSlots {
			continue
		}
		t.constrained |= 1 << s
		for addr, listed := range set {
			if e := t.site(addr + ir.InstrSize); e != nil && listed {
				e.allowed |= 1 << s
			}
		}
	}

	nrs := make([]uint32, 0, len(meta.CallTypes))
	for nr := range meta.CallTypes {
		nrs = append(nrs, nr)
	}
	slices.Sort(nrs)
	for _, nr := range nrs {
		ct := meta.CallTypes[nr]
		wrapper := intern(ct.Wrapper)
		if s := kernel.Slot(nr); s < kernel.NrSlots {
			t.callTypes[s] = callType{wrapper: wrapper, direct: ct.Direct, indirect: ct.Indirect}
		}
	}
	if full {
		return nil, fmt.Errorf("monitor: the metadata names more functions than the name table's %d", math.MaxUint16+1)
	}

	for name, taken := range meta.IndirectTargets {
		if i, ok := index[name]; ok && taken {
			if t.indirect == nil {
				t.indirect = make([]uint64, (len(t.names)+63)/64)
			}
			t.indirect[i/64] |= 1 << (i % 64)
		}
	}
	return t, nil
}

// name returns the index of a name the table holds; it scans, for the
// overflow slot's rare call-type lookups.
func (t *tables) name(name string) uint16 {
	return uint16(slices.Index(t.names, name))
}

// funcOf returns the name index of the function whose range holds addr,
// or 0 ("") when none does.
func (t *tables) funcOf(addr uint64) uint16 {
	// Below funcBase the difference wraps past every table length.
	if i := (addr - t.funcBase) / ir.InstrSize; i < uint64(len(t.funcAt)) {
		return t.funcAt[i]
	}
	return 0
}

// site returns the callsite whose return address is ret, or nil.
func (t *tables) site(ret uint64) *siteEntry {
	d := ret - t.siteBase
	if i := d / ir.InstrSize; d%ir.InstrSize == 0 && i < uint64(len(t.siteAt)) {
		if j := t.siteAt[i]; j != 0 {
			return &t.sites[j-1]
		}
	}
	return nil
}

// isIndirectTarget reports whether the named function's address is taken.
func (t *tables) isIndirectTarget(name uint16) bool {
	w := int(name) / 64
	return w < len(t.indirect) && t.indirect[w]&(1<<(name%64)) != 0
}

// callTypeOf returns syscall nr's call type, the zero value when the
// metadata has none.
func (t *tables) callTypeOf(meta *metadata.Metadata, nr uint32) callType {
	if s := kernel.Slot(nr); s < kernel.NrSlots {
		return t.callTypes[s]
	}
	ct := meta.CallTypes[nr]
	return callType{wrapper: t.name(ct.Wrapper), direct: ct.Direct, indirect: ct.Indirect}
}

// indirectAllowed reports whether AllowedIndirect lets the indirect
// callsite e, whose call instruction is at addr, start a path to nr: a
// syscall without an entry is unconstrained.
func (t *tables) indirectAllowed(meta *metadata.Metadata, nr uint32, e *siteEntry, addr uint64) bool {
	s := kernel.Slot(nr)
	if s == kernel.NrSlots {
		allowed, ok := meta.AllowedIndirect[nr]
		return !ok || allowed[addr]
	}
	return t.constrained&(1<<s) == 0 || e.allowed&(1<<s) != 0
}
