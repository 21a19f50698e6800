package fleet

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"bastion/internal/kernel/fs"
	"bastion/internal/workload"
)

// TestTurnoverIsolation: a tenant run on a worker pool that earlier
// tenants used — a vsFTPd tenant killed by an attack, an NGINX and a
// SQLite tenant — reports exactly what it reports on a fresh pool: same
// units, bytes, cycle accounts, decision trace and metrics. Nothing the
// previous tenants staged, received, logged, left in guest memory or left
// in a register frame reaches it.
func TestTurnoverIsolation(t *testing.T) {
	cfg := DefaultConfig(6, 8)
	cfg.Trace, cfg.FlightN = true, 8
	cfg.Malicious = map[int]string{5: "cve-2012-0809"} // vsftpd
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	arts := NewArtifacts()
	for _, idx := range []int{0, 1, 2} {
		var fresh turnover
		want, _, err := runTenant(&cfg, idx, arts, &fresh)
		if err != nil {
			t.Fatal(err)
		}
		var used turnover
		for _, prev := range []int{5, 3, 4, 2} {
			if _, _, err := runTenant(&cfg, prev, arts, &used); err != nil {
				t.Fatal(err)
			}
		}
		if used.vm.Frames() == 0 {
			t.Fatal("the used pool holds no register frames to recycle")
		}
		got, _, err := runTenant(&cfg, idx, arts, &used)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tenant %d (%s) on a used pool differs from a fresh pool:\n got %+v\nwant %+v", idx, got.App, got, want)
		}
	}
}

// TestTurnoverFixtureSurvivesTenantWrite: the worker's vsFTPd fixture
// bytes are shared by every vsFTPd incarnation on the worker, so a write
// to /pub/file.bin in one incarnation must copy them first: the next
// incarnation serves the original file.
func TestTurnoverFixtureSurvivesTenantWrite(t *testing.T) {
	cfg := DefaultConfig(3, 4)
	arts := NewArtifacts()
	var pool turnover
	prot, target, err := launchTenant(&cfg, 2, "vsftpd", false, arts, &pool)
	if err != nil {
		t.Fatal(err)
	}
	k := prot.Kernel
	if err := k.FS.Chmod("/pub/file.bin", fs.ModeRead|fs.ModeWrite); err != nil {
		t.Fatal(err)
	}
	f, err := k.FS.Open("/pub/file.bin", fs.ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("tampered")); err != nil {
		t.Fatal(err)
	}
	if data, _ := k.FS.ReadFile("/pub/file.bin"); !bytes.HasPrefix(data, []byte("tampered")) {
		t.Fatalf("the write did not land: %q", data[:8])
	}
	var res TenantResult
	drainMonitor(&res, prot, target, false)

	prot, target, err = launchTenant(&cfg, 2, "vsftpd", false, arts, &pool)
	if err != nil {
		t.Fatal(err)
	}
	data, err := prot.Kernel.FS.ReadFile("/pub/file.bin")
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Repeat([]byte{0x5a}, workload.FTPFileSize); !bytes.Equal(data, want) {
		t.Fatalf("the next incarnation's fixture starts %q, want the original file", data[:8])
	}
	wl, err := workload.Run(target, prot, cfg.Units)
	if err != nil || wl.Bytes != int64(cfg.Units)*workload.FTPFileSize {
		t.Fatalf("the next incarnation moved %d bytes: %v", wl.Bytes, err)
	}
}

// warmVsftpdBytes bounds what a vsFTPd tenant of 20 units allocates on a
// warm worker: launch, init and the units' small objects (about 31 KiB).
// A fixture file, a download buffer or a staging buffer allocated anew
// would each add 64 KiB or more.
const warmVsftpdBytes = 48 << 10

// TestWarmVsftpdTenantAllocations: once a worker has run one vsFTPd
// tenant, the next takes its fixture, download buffer, staging buffer,
// event log, page arrays and pages from the pool.
func TestWarmVsftpdTenantAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := DefaultConfig(3, 20)
	arts := NewArtifacts()
	var pool turnover
	for range 2 {
		if _, _, err := runTenant(&cfg, 2, arts, &pool); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _, err := runTenant(&cfg, 2, arts, &pool)
	runtime.ReadMemStats(&after)
	if err != nil || res.Units != cfg.Units {
		t.Fatalf("warm tenant finished %d units: %v", res.Units, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > warmVsftpdBytes {
		t.Fatalf("a warm vsFTPd tenant allocates %d bytes, want at most %d", grew, warmVsftpdBytes)
	}
}
