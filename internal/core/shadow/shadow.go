// Package shadow implements BASTION's shadow memory: an open-addressing
// hash table living inside the protected application's address space
// (under the %gs-analog region, §7.1). The instrumented guest writes
// legitimate values and argument bindings into it through the runtime
// library intrinsics (Table 2); the monitor reads it back through the
// ptrace facility. Both sides share the same table layout (an Accessor on
// the guest side, a Loader on the monitor side), so the guest pays
// inline-instrumentation cost while the monitor pays process_vm_readv cost.
package shadow

import (
	"errors"
	"fmt"
	"math/bits"

	"bastion/internal/ir"
	"bastion/internal/mem"
	"bastion/internal/vm"
)

// Loader reads one shadow word. The monitor's is its kernel.Tracee, which
// charges every read.
type Loader interface {
	Load(addr uint64) (uint64, error)
}

// Accessor also writes shadow words: the guest side, over the VM's memory.
type Accessor interface {
	Loader
	Store(addr uint64, v uint64) error
}

// Table layout: entries of three words [key, value, meta]; key 0 marks an
// empty slot (guest addresses are never 0).
const (
	entryWords = 3
	entryBytes = entryWords * 8
)

// Meta word encoding.
const (
	// MetaDigest flags that the value word is an FNV-1a digest of a region
	// larger than 8 bytes; the low bits still carry the region size.
	MetaDigest uint64 = 1 << 63
	// MetaConst marks a binding entry whose value is a constant.
	MetaConst uint64 = 1 << 62
	// MetaSizeMask extracts the size from a meta word.
	MetaSizeMask uint64 = (1 << 32) - 1
)

// Table is one open-addressing hash table in guest memory.
type Table struct {
	Acc  Accessor
	Base uint64
	Cap  uint64 // number of slots; power of two
}

// NewTable creates a view of a table at base with the given capacity.
func NewTable(acc Accessor, base, capacity uint64) *Table {
	if capacity&(capacity-1) != 0 {
		panic("shadow: capacity must be a power of two")
	}
	return &Table{Acc: acc, Base: base, Cap: capacity}
}

// home returns key's home slot in a table of capacity slots, a power of
// two: Fibonacci hashing, the top log2(capacity) bits of key·2⁶⁴/φ. Keys at
// a fixed stride, as shadowed addresses are, spread evenly over the table.
func home(key, capacity uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> (64 - bits.TrailingZeros64(capacity))
}

// MaxProbe bounds the slots one Get or Put probes, home slot included.
// The table is guest-writable: without the bound, a guest that fills the
// empty slots makes every lookup of a missing key read the whole table.
const MaxProbe = 64

// ErrTableFull: Put found no free slot within MaxProbe. ErrProbeLimit: Get
// found neither the key nor a free slot, a table more crowded than any
// legitimate guest builds, so the lookup has no answer (never a miss).
var (
	ErrTableFull  = errors.New("shadow: table full")
	ErrProbeLimit = errors.New("shadow: probe limit reached")
)

// Put inserts or overwrites key → (value, meta).
func (t *Table) Put(key, value, meta uint64) error {
	if key == 0 {
		return errors.New("shadow: zero key")
	}
	idx := home(key, t.Cap)
	for i := uint64(0); i < min(t.Cap, MaxProbe); i++ {
		s := t.Base + ((idx+i)&(t.Cap-1))*entryBytes
		k, err := t.Acc.Load(s)
		if err != nil {
			return err
		}
		if k == 0 || k == key {
			if err := t.Acc.Store(s, key); err != nil {
				return err
			}
			if err := t.Acc.Store(s+8, value); err != nil {
				return err
			}
			return t.Acc.Store(s+16, meta)
		}
	}
	return ErrTableFull
}

// Get looks up key.
func (t *Table) Get(key uint64) (value, meta uint64, ok bool, err error) {
	return get(t.Acc, t.Base, t.Cap, key)
}

// get looks up key in the table of capacity slots at base, loading at
// most MaxProbe+2 words through l.
func get(l Loader, base, capacity, key uint64) (value, meta uint64, ok bool, err error) {
	if key == 0 {
		return 0, 0, false, nil
	}
	idx := home(key, capacity)
	for i := uint64(0); i < min(capacity, MaxProbe); i++ {
		s := base + ((idx+i)&(capacity-1))*entryBytes
		k, err := l.Load(s)
		if err != nil {
			return 0, 0, false, err
		}
		if k == 0 {
			return 0, 0, false, nil
		}
		if k == key {
			v, err := l.Load(s + 8)
			if err != nil {
				return 0, 0, false, err
			}
			m, err := l.Load(s + 16)
			if err != nil {
				return 0, 0, false, err
			}
			return v, m, true, nil
		}
	}
	return 0, 0, false, ErrProbeLimit
}

// Region layout inside [ir.ShadowBase, ir.ShadowBase+ir.ShadowSize):
// the value table first, the binding table second.
const (
	// ValueCap and BindCap are slot counts (power of two). 3 words per
	// entry: 64Ki*24B = 1.5 MiB each; both fit in the 4 MiB shadow region.
	ValueCap = 1 << 16
	BindCap  = 1 << 15
)

// ValueBase returns the value table's base address.
func ValueBase() uint64 { return ir.ShadowBase }

// BindBase returns the binding table's base address.
func BindBase() uint64 { return ir.ShadowBase + ValueCap*entryBytes }

// BindKey derives the binding-table key for (callsite, position).
// Callsites are InstrSize-aligned, so addr*8+pos is collision-free.
func BindKey(site uint64, pos int) uint64 { return site*8 + uint64(pos) }

// MapRegion maps the shadow region into a guest address space (done at
// launch by the monitor, §7.1).
func MapRegion(space *mem.Space) error {
	return space.Map(ir.ShadowBase, ir.ShadowSize, mem.PermRW)
}

// Digest computes the FNV-1a digest of a region's contents. The monitor
// and the guest runtime must agree on this function; both compute it
// through DigestUpdate.
func Digest(data []byte) uint64 { return DigestUpdate(DigestInit, data) }

// DigestInit is the digest of no bytes, where a streaming digest starts.
const DigestInit uint64 = 14695981039346656037

// DigestUpdate folds data into the running digest h, so a region can be
// digested a piece at a time: DigestUpdate(DigestUpdate(DigestInit, a), b)
// is Digest of a followed by b.
func DigestUpdate(h uint64, data []byte) uint64 {
	const prime = 1099511628211
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// EncodeValue produces the (value, meta) pair for a region's contents:
// raw little-endian value for sizes ≤ 8, digest otherwise.
func EncodeValue(data []byte) (value, meta uint64) {
	size := uint64(len(data))
	if size <= 8 {
		var v uint64
		for i := len(data) - 1; i >= 0; i-- {
			v = v<<8 | uint64(data[i])
		}
		return v, size
	}
	return Digest(data), MetaDigest | size
}

// VMAccessor adapts a guest address space for the guest-side runtime.
type VMAccessor struct{ Mem *mem.Space }

// Load reads a shadow word (guest-inline, permission-checked writes are
// unnecessary here because the region is RW).
func (a VMAccessor) Load(addr uint64) (uint64, error) { return a.Mem.PeekUint(addr, 8) }

// Store writes a shadow word.
func (a VMAccessor) Store(addr uint64, v uint64) error { return a.Mem.PokeUint(addr, v, 8) }

// Runtime implements vm.RuntimeHooks: the inlined BASTION library (Table 2)
// that maintains shadow copies and argument bindings.
type Runtime struct {
	space  *mem.Space
	values *Table
	binds  *Table

	// WriteCount / BindCount count intrinsic executions, for statistics.
	WriteCount uint64
	BindCount  uint64
}

// NewRuntime builds the guest-side runtime over a machine's memory. The
// shadow region must already be mapped.
func NewRuntime(space *mem.Space) *Runtime {
	acc := VMAccessor{Mem: space}
	return &Runtime{
		space:  space,
		values: NewTable(acc, ValueBase(), ValueCap),
		binds:  NewTable(acc, BindBase(), BindCap),
	}
}

// CtxWriteMem records the legitimate value of [addr, addr+size).
func (r *Runtime) CtxWriteMem(m *vm.Machine, addr uint64, size int64) error {
	r.WriteCount++
	v, meta, err := encodeAt(r.space, addr, size)
	if err != nil {
		// The variable may not be materialized yet (e.g. instrumentation on
		// a path where the mapping does not exist); treat as no-op, exactly
		// as the inlined library's bounds check would.
		return nil
	}
	return record(r.values, addr, v, meta)
}

// record puts key → (value, meta) into t, dropping it when t is full:
// the monitor's lookup of that key then meets the same crowded slots, an
// ErrProbeLimit, so the check that needs the entry fails closed.
func record(t *Table, key, value, meta uint64) error {
	if err := t.Put(key, value, meta); !errors.Is(err, ErrTableFull) {
		return err
	}
	return nil
}

// encodeAt returns EncodeValue of the size bytes at addr without
// allocating: a value of up to 8 bytes is read into a stack word, and a
// larger region is digested as mem.Space.PeekEach hands it over.
func encodeAt(space *mem.Space, addr uint64, size int64) (value, meta uint64, err error) {
	if size <= 8 {
		var buf [8]byte
		if err := space.Peek(addr, buf[:size]); err != nil {
			return 0, 0, err
		}
		value, meta = EncodeValue(buf[:size])
		return value, meta, nil
	}
	h := DigestInit
	if _, err := space.PeekEach(addr, uint64(size), func(b []byte) { h = DigestUpdate(h, b) }); err != nil {
		return 0, 0, err
	}
	return h, MetaDigest | uint64(size), nil
}

// CtxBindMem binds the memory-backed variable at addr to argument pos of
// the callsite at site.
func (r *Runtime) CtxBindMem(m *vm.Machine, site uint64, pos int, addr uint64) error {
	r.BindCount++
	return record(r.binds, BindKey(site, pos), addr, 0)
}

// CtxBindConst binds constant val to argument pos of the callsite at site.
func (r *Runtime) CtxBindConst(m *vm.Machine, site uint64, pos int, val int64) error {
	r.BindCount++
	return record(r.binds, BindKey(site, pos), uint64(val), MetaConst)
}

// Reader is the monitor's read-only view of the shadow tables.
type Reader struct{ Src Loader }

// Value looks up the shadow copy recorded for addr.
func (r Reader) Value(addr uint64) (value, meta uint64, ok bool, err error) {
	return get(r.Src, ValueBase(), ValueCap, addr)
}

// Binding looks up the binding for (callsite, pos). isConst reports a
// constant binding; otherwise value is the bound variable's address.
func (r Reader) Binding(site uint64, pos int) (value uint64, isConst, ok bool, err error) {
	v, meta, ok, err := get(r.Src, BindBase(), BindCap, BindKey(site, pos))
	if err != nil || !ok {
		return 0, false, ok, err
	}
	return v, meta&MetaConst != 0, true, nil
}

// String renders diagnostics.
func (t *Table) String() string {
	return fmt.Sprintf("shadow.Table{base=%#x cap=%d}", t.Base, t.Cap)
}
