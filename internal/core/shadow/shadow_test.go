package shadow

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"bastion/internal/ir"
	"bastion/internal/mem"
)

func newSpace(t *testing.T) *mem.Space {
	t.Helper()
	s := mem.NewSpace()
	if err := MapRegion(s); err != nil {
		t.Fatalf("MapRegion: %v", err)
	}
	return s
}

func TestTablePutGet(t *testing.T) {
	s := newSpace(t)
	tab := NewTable(VMAccessor{Mem: s}, ValueBase(), 1<<8)
	if err := tab.Put(0x1000, 42, 8); err != nil {
		t.Fatal(err)
	}
	v, meta, ok, err := tab.Get(0x1000)
	if err != nil || !ok || v != 42 || meta != 8 {
		t.Fatalf("Get = %d,%d,%v,%v", v, meta, ok, err)
	}
	// Overwrite.
	if err := tab.Put(0x1000, 43, 8); err != nil {
		t.Fatal(err)
	}
	v, _, _, _ = tab.Get(0x1000)
	if v != 43 {
		t.Fatalf("after overwrite: %d", v)
	}
	// Missing key.
	if _, _, ok, _ := tab.Get(0x2000); ok {
		t.Fatal("missing key found")
	}
	// Zero key rejected.
	if err := tab.Put(0, 1, 1); err == nil {
		t.Fatal("zero key accepted")
	}
}

func TestTableCollisionsAndFull(t *testing.T) {
	s := newSpace(t)
	tab := NewTable(VMAccessor{Mem: s}, ValueBase(), 8)
	for i := uint64(1); i <= 8; i++ {
		if err := tab.Put(i*0x10, i, 1); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i := uint64(1); i <= 8; i++ {
		v, _, ok, err := tab.Get(i * 0x10)
		if err != nil || !ok || v != i {
			t.Fatalf("Get %d = %d,%v,%v", i, v, ok, err)
		}
	}
	if err := tab.Put(0x999, 1, 1); err != ErrTableFull {
		t.Fatalf("overfull Put = %v", err)
	}
}

func TestEncodeValue(t *testing.T) {
	v, meta := EncodeValue([]byte{0x11, 0x22})
	if v != 0x2211 || meta != 2 {
		t.Fatalf("small = %#x, %d", v, meta)
	}
	big := make([]byte, 16)
	for i := range big {
		big[i] = byte(i)
	}
	v2, meta2 := EncodeValue(big)
	if meta2&MetaDigest == 0 || meta2&MetaSizeMask != 16 {
		t.Fatalf("big meta = %#x", meta2)
	}
	if v2 != Digest(big) {
		t.Fatal("digest mismatch")
	}
	// Digest is content-sensitive.
	big[3] ^= 1
	if v2 == Digest(big) {
		t.Fatal("digest insensitive to change")
	}
}

func TestRuntimeAndReaderRoundTrip(t *testing.T) {
	s := newSpace(t)
	if err := s.Map(0x4000, 4096, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(s)
	// Simulate guest state: an 8-byte flag at 0x4010.
	if err := s.WriteUint(0x4010, 0xbeef, 8); err != nil {
		t.Fatal(err)
	}
	if err := rt.CtxWriteMem(nil, 0x4010, 8); err != nil {
		t.Fatal(err)
	}
	site := ir.CodeBase + 0x40
	if err := rt.CtxBindMem(nil, site, 3, 0x4010); err != nil {
		t.Fatal(err)
	}
	if err := rt.CtxBindConst(nil, site, 1, -1); err != nil {
		t.Fatal(err)
	}

	rd := Reader{Src: VMAccessor{Mem: s}}
	v, meta, ok, err := rd.Value(0x4010)
	if err != nil || !ok || v != 0xbeef || meta != 8 {
		t.Fatalf("Value = %#x,%d,%v,%v", v, meta, ok, err)
	}
	bv, isConst, ok, err := rd.Binding(site, 3)
	if err != nil || !ok || isConst || bv != 0x4010 {
		t.Fatalf("mem binding = %#x,%v,%v,%v", bv, isConst, ok, err)
	}
	cv, isConst, ok, err := rd.Binding(site, 1)
	if err != nil || !ok || !isConst || int64(cv) != -1 {
		t.Fatalf("const binding = %d,%v,%v,%v", int64(cv), isConst, ok, err)
	}
	if _, _, ok, _ := rd.Binding(site, 2); ok {
		t.Fatal("unbound position found")
	}
	if rt.WriteCount != 1 || rt.BindCount != 2 {
		t.Fatalf("counts = %d,%d", rt.WriteCount, rt.BindCount)
	}
}

func TestCtxWriteMemUnmappedIsNoop(t *testing.T) {
	s := newSpace(t)
	rt := NewRuntime(s)
	if err := rt.CtxWriteMem(nil, 0xdead0000, 8); err != nil {
		t.Fatalf("unmapped CtxWriteMem: %v", err)
	}
	rd := Reader{Src: VMAccessor{Mem: s}}
	if _, _, ok, _ := rd.Value(0xdead0000); ok {
		t.Fatal("entry created for unmapped variable")
	}
}

// TestReaderIsReadOnly: the monitor's view can only look up. Its one
// field is a Loader, which has no Store, and its only methods are the two
// lookups, so no path through a Reader writes guest memory, whatever its
// Loader also implements.
func TestReaderIsReadOnly(t *testing.T) {
	rt := reflect.TypeOf(Reader{})
	if rt.NumField() != 1 || rt.Field(0).Type != reflect.TypeOf((*Loader)(nil)).Elem() {
		t.Fatalf("Reader fields: %v", rt)
	}
	if lt := rt.Field(0).Type; lt.NumMethod() != 1 || lt.Method(0).Name != "Load" {
		t.Fatalf("Loader has methods beyond Load: %d", lt.NumMethod())
	}
	var names []string
	for i := range rt.NumMethod() {
		names = append(names, rt.Method(i).Name)
	}
	if !slices.Equal(names, []string{"Binding", "Value"}) {
		t.Fatalf("Reader methods = %v, want only the lookups", names)
	}
}

// countingLoader counts the words a lookup loads.
type countingLoader struct {
	acc   Accessor
	loads int
}

func (c *countingLoader) Load(addr uint64) (uint64, error) {
	c.loads++
	return c.acc.Load(addr)
}

// TestProbeLimit: a lookup reads at most MaxProbe slots. When the key's
// home slot and the MaxProbe-1 after it hold other keys, Get is an error,
// never a miss, after exactly MaxProbe loads, and Put reports the table
// full; one free slot inside the window makes them a miss and an insert.
// A full table smaller than MaxProbe is crowded too.
func TestProbeLimit(t *testing.T) {
	s := newSpace(t)
	acc := VMAccessor{Mem: s}
	const capacity = 1 << 10
	tab := NewTable(acc, ValueBase(), capacity)
	const key = uint64(0x4242)
	start := home(key, capacity)
	for i := uint64(0); i < MaxProbe; i++ {
		slot := ValueBase() + ((start+i)&(capacity-1))*entryBytes
		if err := acc.Store(slot, 1<<62|i); err != nil {
			t.Fatal(err)
		}
	}
	cl := &countingLoader{acc: acc}
	if _, _, ok, err := get(cl, ValueBase(), capacity, key); err != ErrProbeLimit || ok {
		t.Fatalf("crowded Get = %v, %v; want ErrProbeLimit", ok, err)
	}
	if cl.loads != MaxProbe {
		t.Fatalf("crowded Get loaded %d words, want %d", cl.loads, MaxProbe)
	}
	if _, _, _, err := tab.Get(key); err != ErrProbeLimit {
		t.Fatalf("Table.Get = %v", err)
	}
	if err := tab.Put(key, 1, 8); err != ErrTableFull {
		t.Fatalf("crowded Put = %v, want ErrTableFull", err)
	}
	last := ValueBase() + ((start+MaxProbe-1)&(capacity-1))*entryBytes
	if err := acc.Store(last, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := tab.Get(key); err != nil || ok {
		t.Fatalf("Get with a free slot in the window = %v, %v; want a miss", ok, err)
	}
	if err := tab.Put(key, 7, 8); err != nil {
		t.Fatalf("Put into the window's last slot: %v", err)
	}
	if v, _, ok, err := tab.Get(key); err != nil || !ok || v != 7 {
		t.Fatalf("Get after Put = %d, %v, %v", v, ok, err)
	}

	small := NewTable(acc, BindBase(), 8)
	for i := uint64(1); i <= 8; i++ {
		if err := small.Put(i*0x10, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok, err := small.Get(0x999); err != ErrProbeLimit || ok {
		t.Fatalf("full small table Get = %v, %v; want ErrProbeLimit", ok, err)
	}
}

func TestBindKeyUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for site := uint64(ir.CodeBase); site < ir.CodeBase+64*ir.InstrSize; site += ir.InstrSize {
		for pos := 1; pos <= 6; pos++ {
			k := BindKey(site, pos)
			if seen[k] {
				t.Fatalf("duplicate key for site %#x pos %d", site, pos)
			}
			seen[k] = true
		}
	}
}

// Property: put/get over random keys behaves like a map while below
// capacity.
func TestTableMapEquivalence(t *testing.T) {
	s := newSpace(t)
	tab := NewTable(VMAccessor{Mem: s}, ValueBase(), 1<<10)
	model := map[uint64]uint64{}
	f := func(key, val uint64) bool {
		key = key%100_000 + 1
		if len(model) >= 900 && model[key] == 0 {
			return true // stay below capacity
		}
		if err := tab.Put(key, val, 8); err != nil {
			return false
		}
		model[key] = val
		got, _, ok, err := tab.Get(key)
		return err == nil && ok && got == model[key]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Get looks up key.
func (t *Table) Get(key uint64) (value, meta uint64, ok bool, err error) {
	return get(t.Acc, t.Base, t.Cap, key)
}
