package sqlitedb_test

import (
	"fmt"
	"testing"

	"bastion/internal/apps/sqlitedb"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/kernel/fs"
	"bastion/internal/vm"
)

func launch(t *testing.T, bare bool) *core.Protected {
	t.Helper()
	art, err := core.Compile(sqlitedb.Build(), core.CompileOptions{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	k := kernel.New(nil)
	if err := k.FS.MkdirAll("/var/db", fs.ModeRead|fs.ModeWrite|fs.ModeExec); err != nil {
		t.Fatal(err)
	}
	var prot *core.Protected
	if bare {
		prot, err = core.LaunchUnprotected(art, k, vm.WithMaxSteps(1<<26))
	} else {
		prot, err = core.Launch(art, k, monitor.DefaultConfig(), vm.WithMaxSteps(1<<26))
	}
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return prot
}

func runTxn(t *testing.T, prot *core.Protected, cfd uint64, id, qty int) uint64 {
	t.Helper()
	// The transaction reads its query from the accepted connection; queue
	// it via the kernel-side connection object.
	conn := connOf(t, prot, cfd)
	conn.ClientWrite([]byte(fmt.Sprintf("NEWORDER %d %d", id, qty)))
	got, err := prot.Machine.CallFunction(sqlitedb.FnTxn, cfd)
	if err != nil {
		t.Fatalf("txn: %v", err)
	}
	return got
}

// connOf digs the netstack connection out of the process FD table by
// dialing before accept; tests instead keep the conn from Dial.
var conns = map[uint64]interface {
	ClientWrite([]byte) (int, error)
	ClientReadAll() []byte
}{}

func connOf(t *testing.T, prot *core.Protected, cfd uint64) interface {
	ClientWrite([]byte) (int, error)
	ClientReadAll() []byte
} {
	c, ok := conns[cfd]
	if !ok {
		t.Fatalf("no client conn for fd %d", cfd)
	}
	return c
}

func setup(t *testing.T, prot *core.Protected) uint64 {
	t.Helper()
	lfd, err := prot.Machine.CallFunction(sqlitedb.FnInit, 2)
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	conn, err := prot.Kernel.Net.Dial(sqlitedb.Port)
	if err != nil {
		t.Fatal(err)
	}
	cfd, err := prot.Machine.CallFunction(sqlitedb.FnAccept, lfd)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	conns[cfd] = conn
	return cfd
}

func TestTransactionsProtected(t *testing.T) {
	prot := launch(t, false)
	cfd := setup(t, prot)
	for i := 1; i <= 10; i++ {
		id := runTxn(t, prot, cfd, 100+i, 5)
		if id != uint64(100+i) {
			t.Fatalf("txn %d returned %d", i, id)
		}
	}
	if got := string(connOf(t, prot, cfd).ClientReadAll()); got != "OKOKOKOKOKOKOKOKOKOK" {
		t.Fatalf("responses = %q", got)
	}
	if len(prot.Monitor.Violations) != 0 {
		t.Fatalf("violations: %v", prot.Monitor.Violations)
	}
	// mprotect fires twice per MprotectPeriod transactions (harden +
	// release); db_init performs none.
	want := uint64(10/sqlitedb.MprotectPeriod) * 2
	if got := prot.Monitor.ChecksByNr.Of(kernel.SysMprotect); got != want {
		t.Fatalf("mprotect checks = %d, want %d", got, want)
	}
}

func TestUpsertAccumulates(t *testing.T) {
	prot := launch(t, true)
	cfd := setup(t, prot)
	runTxn(t, prot, cfd, 500, 7)
	runTxn(t, prot, cfd, 500, 3)
	// Row total for key 500 should be qty 10 after two upserts; verify via
	// a third upsert of 0 returning the accumulated quantity.
	got, err := prot.Machine.CallFunction(sqlitedb.FnUpsert, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("accumulated qty = %d, want 10", got)
	}
}

func TestJournalWritten(t *testing.T) {
	prot := launch(t, true)
	cfd := setup(t, prot)
	runTxn(t, prot, cfd, 42, 9)
	data, err := prot.Kernel.FS.ReadFile("/var/db/journal")
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	if len(data) != 24 {
		t.Fatalf("journal size = %d", len(data))
	}
	if data[0] != 42 || data[8] != 9 || data[16] != 0x5a {
		t.Fatalf("journal record = %v", data[:24])
	}
}

func TestInitProfile(t *testing.T) {
	prot := launch(t, true)
	if _, err := prot.Machine.CallFunction(sqlitedb.FnInit, 4); err != nil {
		t.Fatal(err)
	}
	c := prot.Proc.SyscallCounts
	if c.Of(kernel.SysMmap) != 9 { // table + 8 cache regions
		t.Errorf("mmap = %d", c.Of(kernel.SysMmap))
	}
	if c.Of(kernel.SysClone) != 4 {
		t.Errorf("clone = %d", c.Of(kernel.SysClone))
	}
	if c.Of(kernel.SysBind) != 1 || c.Of(kernel.SysListen) != 1 || c.Of(kernel.SysSocket) != 1 {
		t.Errorf("net setup = %d/%d/%d", c.Of(kernel.SysSocket), c.Of(kernel.SysBind), c.Of(kernel.SysListen))
	}
}
