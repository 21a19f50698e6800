package workload_test

import (
	"runtime"
	"testing"

	"bastion/internal/workload"
)

// nginxUnitAllocs is what one warm protected request allocates: on the
// client side the Dial Conn, its backlog slot and the request bytes; in
// the kernel the accepted and the opened FD, the fs.File, the path string
// and four objects of path splitting; and one shadow-table entry.
const nginxUnitAllocs = 12

// TestNginxUnitAllocations pins a warm request to a small fixed number of
// small objects. A per-request buffer (a staging copy, a fresh response
// slice) would add tens of KiB per request, and with the guest's memory no
// longer on the heap that alone sets the GC pace.
func TestNginxUnitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	target := workload.NewNginx()
	prot := launch(t, target, true)
	if err := target.Init(prot); err != nil {
		t.Fatal(err)
	}
	i := 0
	unit := func() {
		if _, err := target.Unit(prot, i); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 64 {
		unit()
	}
	if allocs := testing.AllocsPerRun(500, unit); allocs > nginxUnitAllocs {
		t.Fatalf("a warm request allocates %.1f objects, want at most %d", allocs, nginxUnitAllocs)
	}
	const units, maxBytes = 500, 1024
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for j := 0; j < units; j++ {
		unit()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / units; per > maxBytes {
		t.Fatalf("a warm request allocates %d bytes, want at most %d", per, maxBytes)
	}
}
