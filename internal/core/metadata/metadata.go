// Package metadata defines the context metadata the BASTION compiler emits
// and the runtime monitor consumes: call-type permissions per system call,
// the callsite map and callee→valid-caller relations for the control-flow
// context, and per-callsite argument descriptors for the argument-integrity
// context (§6 of the paper). Metadata serializes to JSON so a compiled
// artifact can be stored next to its binary, as the paper's .bastion
// sidecar files are.
package metadata

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"bastion/internal/ir"
)

// AddrSet is a set of code addresses. It serializes as a sorted JSON array
// so artifacts are byte-stable across runs: Go's default map encoding
// orders integer keys lexicographically by their decimal strings, which is
// deterministic but surprising ("10" before "9") and couples the artifact
// bytes to an encoding quirk rather than to the data.
type AddrSet map[uint64]bool

// MarshalJSON emits the set as a numerically sorted array.
func (s AddrSet) MarshalJSON() ([]byte, error) {
	addrs := make([]uint64, 0, len(s))
	for a := range s {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return json.Marshal(addrs)
}

// UnmarshalJSON parses the sorted-array form.
func (s *AddrSet) UnmarshalJSON(data []byte) error {
	var addrs []uint64
	if err := json.Unmarshal(data, &addrs); err != nil {
		return err
	}
	*s = make(AddrSet, len(addrs))
	for _, a := range addrs {
		(*s)[a] = true
	}
	return nil
}

// NameSet is a set of function names, serialized as a sorted JSON array
// (see AddrSet for why the set form is not serialized as an object).
type NameSet map[string]bool

// MarshalJSON emits the set as a sorted array.
func (s NameSet) MarshalJSON() ([]byte, error) {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	return json.Marshal(names)
}

// UnmarshalJSON parses the sorted-array form.
func (s *NameSet) UnmarshalJSON(data []byte) error {
	var names []string
	if err := json.Unmarshal(data, &names); err != nil {
		return err
	}
	*s = make(NameSet, len(names))
	for _, n := range names {
		(*s)[n] = true
	}
	return nil
}

// NrAddrSets maps syscall numbers to address sets. It serializes as an
// object whose keys appear in numeric order (standard library map encoding
// would order them lexicographically).
type NrAddrSets map[uint32]AddrSet

// MarshalJSON emits the map with numerically sorted keys.
func (m NrAddrSets) MarshalJSON() ([]byte, error) {
	nrs := make([]uint32, 0, len(m))
	for nr := range m {
		nrs = append(nrs, nr)
	}
	sort.Slice(nrs, func(i, j int) bool { return nrs[i] < nrs[j] })
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, nr := range nrs {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(strconv.Quote(strconv.FormatUint(uint64(nr), 10)))
		buf.WriteByte(':')
		inner, err := m[nr].MarshalJSON()
		if err != nil {
			return nil, err
		}
		buf.Write(inner)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// UnmarshalJSON parses the object form.
func (m *NrAddrSets) UnmarshalJSON(data []byte) error {
	raw := map[uint32]AddrSet{}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*m = raw
	return nil
}

// CallType records how one system call may legitimately be invoked
// (§3.1): directly, indirectly, both, or not at all.
type CallType struct {
	Nr       uint32 `json:"nr"`
	Name     string `json:"name"`
	Wrapper  string `json:"wrapper"`  // wrapper function implementing it
	Direct   bool   `json:"direct"`   // has a direct callsite
	Indirect bool   `json:"indirect"` // wrapper address is taken
}

// Callable reports whether the syscall may be invoked at all.
func (c CallType) Callable() bool { return c.Direct || c.Indirect }

// SiteKind distinguishes direct from indirect callsites.
type SiteKind uint8

// Callsite kinds.
const (
	SiteDirect SiteKind = iota
	SiteIndirect
)

func (k SiteKind) String() string {
	if k == SiteIndirect {
		return "indirect"
	}
	return "direct"
}

// Callsite describes one call instruction in the program. The monitor
// looks callsites up by return address while unwinding.
type Callsite struct {
	Addr    uint64   `json:"addr"`    // address of the call instruction
	RetAddr uint64   `json:"retaddr"` // Addr + InstrSize (unwind key)
	Caller  string   `json:"caller"`  // containing function
	Kind    SiteKind `json:"kind"`
	Target  string   `json:"target,omitempty"` // direct callee ("" if indirect)
	TypeSig string   `json:"typesig,omitempty"`
}

// FuncInfo records a function's code range for address→function mapping.
type FuncInfo struct {
	Name  string `json:"name"`
	Entry uint64 `json:"entry"`
	End   uint64 `json:"end"` // exclusive
}

// ArgKind classifies a bound argument (§6.3.4).
type ArgKind uint8

// Argument kinds.
const (
	// ArgConst: the expected value is a compile-time constant.
	ArgConst ArgKind = iota
	// ArgMem: the value is memory-backed; its legitimate value lives in the
	// shadow table under the runtime-bound address.
	ArgMem
)

func (k ArgKind) String() string {
	if k == ArgMem {
		return "mem"
	}
	return "const"
}

// ArgSpec describes one traced argument of a callsite.
type ArgSpec struct {
	Pos   int     `json:"pos"` // 1-based argument position
	Kind  ArgKind `json:"kind"`
	Const int64   `json:"const,omitempty"` // for ArgConst
	Size  int64   `json:"size,omitempty"`  // for ArgMem: variable width in bytes
	// Deref marks a pointer argument materialized from the address of a
	// known object (&buf): the register must equal the bound address, and
	// extended-argument rules may verify the pointee (§3.3, §6.3.2).
	Deref bool `json:"deref,omitempty"`
}

// IndirectSite is the per-indirect-callsite control-flow policy: the
// refined (points-to) target set next to the coarse address-taken
// baseline, so auditors and the residual-surface report can quantify what
// refinement removed.
type IndirectSite struct {
	Addr    uint64 `json:"addr"`
	Caller  string `json:"caller"`
	TypeSig string `json:"typesig,omitempty"`
	// Targets is the refined target set (sorted; always ⊆ Coarse).
	Targets []string `json:"targets"`
	// Coarse is the address-taken, signature-matched baseline (sorted).
	Coarse []string `json:"coarse"`
	// Exact reports the target register resolved through tracked memory
	// cells only; false means the policy fell back to the coarse set.
	Exact bool `json:"exact"`
}

// UntracedArg records one callsite argument the use-def trace could not
// resolve, with a machine-readable reason code (enumerated by the audit).
type UntracedArg struct {
	Addr   uint64 `json:"addr"`
	Caller string `json:"caller"`
	Target string `json:"target,omitempty"`
	Pos    int    `json:"pos"` // 1-based argument position
	Reason string `json:"reason"`
}

// Untraced-argument reason codes.
const (
	// UntracedValueOrigin: the backward value trace ended at an
	// instruction it cannot model (e.g. an unresolvable load or a call
	// result).
	UntracedValueOrigin = "value-origin-unknown"
	// UntracedAddress: the value's location was traced but its address
	// cannot be rematerialized at the callsite for binding.
	UntracedAddress = "address-not-materializable"
)

// ArgSite is the argument-integrity record of one callsite: a sensitive
// system call callsite, or an intermediate callsite passing sensitive
// variables (e.g. bar() in Figure 2 of the paper).
type ArgSite struct {
	Addr      uint64    `json:"addr"`
	Caller    string    `json:"caller"`
	Target    string    `json:"target"`
	SyscallNr uint32    `json:"syscall_nr"` // 0 when not a syscall wrapper callsite
	IsSyscall bool      `json:"is_syscall"`
	Args      []ArgSpec `json:"args"`
}

// Metadata is the complete compiler output the monitor loads at startup.
type Metadata struct {
	// CallTypes maps syscall number to its call-type permission. Syscall
	// numbers absent from this map are not-callable.
	CallTypes map[uint32]CallType `json:"call_types"`

	// Callsites is keyed by return address (call address + instruction
	// size), which is what stack unwinding produces.
	Callsites map[uint64]Callsite `json:"callsites"`

	// Funcs maps function names to their code ranges.
	Funcs map[string]FuncInfo `json:"funcs"`

	// ValidCallers maps a callee function to the set of functions allowed
	// to call it directly — recorded only for functions on control-flow
	// paths that reach sensitive system calls (§6.2).
	ValidCallers map[string]NameSet `json:"valid_callers"`

	// IndirectTargets is the set of functions whose address is taken and
	// may therefore legitimately be reached from an indirect callsite.
	IndirectTargets NameSet `json:"indirect_targets"`

	// AllowedIndirect maps a sensitive syscall number to the set of
	// indirect callsite addresses that can legitimately start a path to it:
	// an indirect callsite is allowed for syscall S iff some function in
	// the callsite's refined target set reaches S. This is the "expected
	// partial stack trace" of §7.3, tightened by the points-to analysis.
	AllowedIndirect NrAddrSets `json:"allowed_indirect"`

	// AllowedIndirectCoarse is the pre-refinement policy (address-taken,
	// signature-matched), kept for the refinement ablation and audit.
	// The refined sets are subsets of these, never supersets.
	AllowedIndirectCoarse NrAddrSets `json:"allowed_indirect_coarse,omitempty"`

	// IndirectSites maps indirect-callsite address to its per-site policy.
	IndirectSites map[uint64]IndirectSite `json:"indirect_sites,omitempty"`

	// Untraced enumerates arguments the use-def trace gave up on, sorted
	// by (address, position); the audit reports them with reason codes.
	Untraced []UntracedArg `json:"untraced,omitempty"`

	// ArgSites maps callsite address to its argument-integrity record.
	ArgSites map[uint64]ArgSite `json:"arg_sites"`

	// SyscallFlow is the syscall-transition graph of the syscall-flow
	// context. Nil (metadata predating the context) and empty graphs
	// constrain nothing.
	SyscallFlow *FlowGraph `json:"syscall_flow,omitempty"`

	// Entry is the program entry function.
	Entry string `json:"entry"`
}

// New returns empty metadata.
func New() *Metadata {
	return &Metadata{
		CallTypes:       map[uint32]CallType{},
		Callsites:       map[uint64]Callsite{},
		Funcs:           map[string]FuncInfo{},
		ValidCallers:    map[string]NameSet{},
		IndirectTargets: NameSet{},
		AllowedIndirect: NrAddrSets{},
		ArgSites:        map[uint64]ArgSite{},
		SyscallFlow:     NewFlowGraph(),
	}
}

// CoarseIndirect projects the metadata onto the pre-refinement
// indirect-callsite policy, for the refinement ablation: it returns a
// shallow copy whose AllowedIndirect is AllowedIndirectCoarse. Metadata
// predating the refinement has no coarse sets, and the receiver itself is
// returned. The copy shares every other map with the receiver, so neither
// may be mutated afterwards.
func (m *Metadata) CoarseIndirect() *Metadata {
	if m.AllowedIndirectCoarse == nil {
		return m
	}
	c := *m
	c.AllowedIndirect = m.AllowedIndirectCoarse
	return &c
}

// funcRange is one function's code range, as Validate checks it.
type funcRange struct {
	entry, end uint64
	name       string
}

// sortedRanges returns the ranges of funcs ordered by (entry, end, name).
// Empty ranges contain no address and are dropped; inverted ones are kept
// for Validate to reject.
func sortedRanges(funcs map[string]FuncInfo) []funcRange {
	out := make([]funcRange, 0, len(funcs))
	for name, fi := range funcs {
		if fi.Entry != fi.End {
			out = append(out, funcRange{entry: fi.Entry, end: fi.End, name: name})
		}
	}
	slices.SortFunc(out, func(a, b funcRange) int {
		if c := cmp.Compare(a.entry, b.entry); c != 0 {
			return c
		}
		if c := cmp.Compare(a.end, b.end); c != 0 {
			return c
		}
		return cmp.Compare(a.name, b.name)
	})
	return out
}

// CallerAllowed reports whether caller may directly call callee under the
// control-flow context. Functions without a ValidCallers entry are not on
// any sensitive path, so the context does not constrain them.
func (m *Metadata) CallerAllowed(callee, caller string) (constrained, allowed bool) {
	set, ok := m.ValidCallers[callee]
	if !ok {
		return false, true
	}
	return true, set[caller]
}

// Validate checks the invariants the monitor's hot path relies on instead
// of re-checking per trap. In particular, argument positions must be in
// the syscall ABI's 1..6 range: vm.Regs.Arg returns 0 for anything else,
// so a malformed position would make argument integrity compare against a
// fabricated zero instead of the real register.
//
// The monitor indexes callsites and function ranges by instruction slot,
// (addr-base)/ir.InstrSize, so every callsite key and function range must
// be an InstrSize-aligned address of the code region [ir.CodeBase,
// ir.DataBase): a forged range can then never size a table past the
// region's 2 MiB / InstrSize slots. A callsite's key is its return
// address, the instruction after the call.
func (m *Metadata) Validate() error {
	// Function ranges must be well formed and disjoint: address→function
	// resolution would otherwise depend on map order or on tie-breaking.
	// A compiler-produced sidecar never overlaps; fail closed on one that
	// does.
	ranges := sortedRanges(m.Funcs)
	for i, cur := range ranges {
		if cur.entry > cur.end {
			return fmt.Errorf("metadata: function %q: entry %#x past end %#x", cur.name, cur.entry, cur.end)
		}
		if !inCode(cur.entry) || !inCode(cur.end) && cur.end != ir.DataBase {
			return fmt.Errorf("metadata: function %q [%#x,%#x) is not an aligned range of the code region", cur.name, cur.entry, cur.end)
		}
		if i == 0 {
			continue
		}
		if prev := ranges[i-1]; cur.entry < prev.end {
			return fmt.Errorf("metadata: function %q [%#x,%#x) overlaps %q [%#x,%#x)",
				cur.name, cur.entry, cur.end, prev.name, prev.entry, prev.end)
		}
	}
	for ret, cs := range m.Callsites {
		if !inCode(ret) {
			return fmt.Errorf("metadata: callsite key %#x is not an aligned code address", ret)
		}
		if cs.RetAddr != ret || cs.Addr+ir.InstrSize != ret {
			return fmt.Errorf("metadata: callsite key %#x: call at %#x returns to %#x", ret, cs.Addr, cs.RetAddr)
		}
	}
	for addr, site := range m.ArgSites {
		for _, spec := range site.Args {
			if spec.Pos < 1 || spec.Pos > 6 {
				return fmt.Errorf("metadata: arg site %#x: position %d outside syscall ABI range 1..6", addr, spec.Pos)
			}
			if spec.Size < 0 {
				return fmt.Errorf("metadata: arg site %#x: negative size %d for arg %d", addr, spec.Size, spec.Pos)
			}
		}
	}
	// Refinement soundness: the refined indirect policy must never admit a
	// callsite the coarse baseline rejects (a sidecar violating this was
	// not produced by the compiler).
	if m.AllowedIndirectCoarse != nil {
		for nr, refined := range m.AllowedIndirect {
			coarse, ok := m.AllowedIndirectCoarse[nr]
			if !ok {
				return fmt.Errorf("metadata: refined AllowedIndirect for %d has no coarse baseline", nr)
			}
			for addr := range refined {
				if !coarse[addr] {
					return fmt.Errorf("metadata: refined AllowedIndirect for %d admits %#x beyond the coarse set", nr, addr)
				}
			}
		}
	}
	// Control-flow edge lists must be duplicate-free. No monitor code reads
	// IndirectSites (enforcement checks AllowedIndirect); the site records
	// are the policy's provenance, which the audit checks against the
	// program. The compiler never emits a duplicated edge, so a sidecar
	// carrying one was not produced by it. Fail closed.
	for addr, site := range m.IndirectSites {
		if dup := firstDuplicate(site.Targets); dup != "" {
			return fmt.Errorf("metadata: indirect site %#x: duplicate refined target %q", addr, dup)
		}
		if dup := firstDuplicate(site.Coarse); dup != "" {
			return fmt.Errorf("metadata: indirect site %#x: duplicate coarse target %q", addr, dup)
		}
	}
	if err := m.SyscallFlow.validate(); err != nil {
		return err
	}
	return nil
}

// inCode reports whether addr is an InstrSize-aligned address of the code
// region.
func inCode(addr uint64) bool {
	return addr >= ir.CodeBase && addr < ir.DataBase && (addr-ir.CodeBase)%ir.InstrSize == 0
}

// firstDuplicate returns the first repeated element of list, or "".
func firstDuplicate(list []string) string {
	seen := make(map[string]bool, len(list))
	for _, s := range list {
		if seen[s] {
			return s
		}
		seen[s] = true
	}
	return ""
}

// Marshal serializes the metadata to JSON.
func (m *Metadata) Marshal() ([]byte, error) {
	return json.MarshalIndent(m, "", " ")
}

// Unmarshal parses metadata previously produced by Marshal. The sidecar
// is attacker-adjacent input, so structural invariants are checked here.
func Unmarshal(data []byte) (*Metadata, error) {
	m := New()
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("metadata: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Summary renders a human-readable overview (used by cmd/bastionc).
func (m *Metadata) Summary() string {
	type row struct {
		nr uint32
		ct CallType
	}
	rows := make([]row, 0, len(m.CallTypes))
	for nr, ct := range m.CallTypes {
		rows = append(rows, row{nr, ct})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].nr < rows[j].nr })
	out := fmt.Sprintf("metadata: %d callable syscalls, %d callsites, %d arg sites, %d constrained callees\n",
		len(m.CallTypes), len(m.Callsites), len(m.ArgSites), len(m.ValidCallers))
	for _, r := range rows {
		mode := "direct"
		switch {
		case r.ct.Direct && r.ct.Indirect:
			mode = "direct+indirect"
		case r.ct.Indirect:
			mode = "indirect"
		}
		out += fmt.Sprintf("  %-18s nr=%-4d %s\n", r.ct.Name, r.nr, mode)
	}
	return out
}
