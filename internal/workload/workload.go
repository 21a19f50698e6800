// Package workload implements the paper's three benchmark drivers as
// deterministic client generators over the simulated network: a wrk-like
// HTTP load for NGINX (§9.2), a DBT2-like new-order transaction stream for
// SQLite, and a dkftpbench-like download loop for vsFTPd. A driver owns
// the client half of every connection; the guest application executes the
// server half instruction by instruction on the simulated machine.
package workload

import (
	"bytes"
	"fmt"

	"bastion/internal/apps/nginx"
	"bastion/internal/apps/sqlitedb"
	"bastion/internal/apps/vsftpd"
	"bastion/internal/core"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/kernel/fs"
	"bastion/internal/kernel/netstack"
)

// Target drives one guest application through its benchmark.
type Target interface {
	// Name is the application name ("nginx", "sqlite", "vsftpd").
	Name() string
	// Build assembles a fresh guest program.
	Build() *ir.Program
	// Fixture prepares kernel-side state (files, peer listeners).
	Fixture(k *kernel.Kernel) error
	// Init runs guest initialization (the paper's init phase).
	Init(p *core.Protected) error
	// Unit performs one work unit, returning application bytes moved.
	Unit(p *core.Protected, i int) (int64, error)
	// UnitLabel names the unit ("request", "transaction", "transfer").
	UnitLabel() string
	// Workers is the deployment concurrency the paper configures for this
	// application; the bench's throughput model shares one monitor among
	// this many workers.
	Workers() int
	// ThinkPerUnit is the modeled per-unit server compute our substrate
	// does not execute (SQL planning, TLS, header processing); charged to
	// the shared clock by Run.
	ThinkPerUnit() uint64
}

// Result summarizes a measured run.
type Result struct {
	Units         int
	Bytes         int64
	InitCycles    uint64 // init-phase cycles (excluded from steady state)
	TotalCycles   uint64 // steady-state cycles including monitor work
	MonitorCycles uint64 // monitor-attributed share of TotalCycles
	Traps         uint64
}

// PerUnitTotal returns steady-state cycles per unit.
func (r Result) PerUnitTotal() float64 {
	if r.Units == 0 {
		return 0
	}
	return float64(r.TotalCycles) / float64(r.Units)
}

// PerUnitMonitor returns monitor cycles per unit.
func (r Result) PerUnitMonitor() float64 {
	if r.Units == 0 {
		return 0
	}
	return float64(r.MonitorCycles) / float64(r.Units)
}

// Run initializes the target and executes units, separating init-phase
// from steady-state cycle counts. On a unit error the returned Result
// still carries the steady-state counters accumulated up to the failure
// (units completed, cycles, monitor share, traps), so supervisors that
// restart a failed guest can account for real partial progress.
func Run(t Target, p *core.Protected, units int) (Result, error) {
	var res Result
	startInit := p.Kernel.Clock.Cycles
	if err := t.Init(p); err != nil {
		res.InitCycles = p.Kernel.Clock.Cycles - startInit
		return res, fmt.Errorf("workload %s init: %w", t.Name(), err)
	}
	res.InitCycles = p.Kernel.Clock.Cycles - startInit
	err := steady(t, p, 0, units, &res)
	return res, err
}

// Continue executes units against an already-initialized target without
// re-running Init, numbering them base..base+units-1 so stateful drivers
// (SQLite transaction ids, vsFTPd data ports) pick up exactly where the
// previous slice stopped. Run(t, p, r) followed by Continue(t, p, r, u-r)
// is byte-identical to Run(t, p, u) — the property the policy hot-reload
// differential suite builds on: a live incarnation keeps serving across a
// mid-run segment boundary with zero guest downtime.
func Continue(t Target, p *core.Protected, base, units int) (Result, error) {
	var res Result
	err := steady(t, p, base, units, &res)
	return res, err
}

// steady is the shared steady-state unit loop: cycles, monitor share, and
// traps are measured as deltas across the slice, and a failing unit still
// settles the counters accumulated so far.
func steady(t Target, p *core.Protected, base, units int, res *Result) error {
	start := p.Kernel.Clock.Cycles
	monStart := p.Proc.MonitorCycles
	trapStart := p.Proc.TrapCount
	settle := func() {
		res.TotalCycles = p.Kernel.Clock.Cycles - start
		res.MonitorCycles = p.Proc.MonitorCycles - monStart
		res.Traps = p.Proc.TrapCount - trapStart
	}
	for i := 0; i < units; i++ {
		n, err := t.Unit(p, base+i)
		if err != nil {
			settle()
			return fmt.Errorf("workload %s unit %d: %w", t.Name(), base+i, err)
		}
		p.Kernel.Clock.Add(t.ThinkPerUnit())
		res.Bytes += n
		res.Units++
	}
	settle()
	return nil
}

// IOPerByte is the per-application I/O + protocol work model charged per
// byte moved through the simulated kernel (see internal/bench's
// measurement-model comment for calibration).
func IOPerByte(app string) uint64 {
	switch app {
	case "nginx":
		return 130
	case "sqlite":
		return 40
	case "vsftpd":
		return 26
	}
	return kernel.DefaultCosts().IOPerByte
}

// --- NGINX / wrk ---

// PageSize is the static page size the paper serves (6,745 bytes).
const PageSize = 6745

// Nginx is the wrk-like HTTP driver.
type Nginx struct {
	// GuestWorkers is the worker count ngx_init spawns (paper: 32).
	GuestWorkers int
	// Think models per-request server compute (see Target.ThinkPerUnit).
	Think uint64

	lfd uint64
	// recv is the response buffer every request's connection reuses, as
	// wrk reuses its read buffer. Init sizes it for one whole response.
	recv []byte
}

// NewNginx returns the paper-configured NGINX target.
func NewNginx() *Nginx { return &Nginx{GuestWorkers: nginx.Workers, Think: 60_000} }

// Name implements Target.
func (t *Nginx) Name() string { return "nginx" }

// Build implements Target.
func (t *Nginx) Build() *ir.Program { return nginx.Build() }

// UnitLabel implements Target.
func (t *Nginx) UnitLabel() string { return "request" }

// Workers implements Target.
func (t *Nginx) Workers() int { return t.GuestWorkers }

// ThinkPerUnit implements Target.
func (t *Nginx) ThinkPerUnit() uint64 { return t.Think }

// Fixture implements Target.
func (t *Nginx) Fixture(k *kernel.Kernel) error {
	page := bytes.Repeat([]byte("BASTION simulated static page.\n"), PageSize/31+1)[:PageSize]
	if err := k.FS.WriteFile("/srv/index.html", page, fs.ModeRead); err != nil {
		return err
	}
	if err := k.FS.WriteFile("/usr/sbin/nginx", []byte{0x7f}, fs.ModeRead|fs.ModeExec); err != nil {
		return err
	}
	up := k.Net.NewSocket()
	if err := k.Net.Bind(up, nginx.UpstreamPort); err != nil {
		return err
	}
	return k.Net.Listen(up, 4096)
}

// Init implements Target.
func (t *Nginx) Init(p *core.Protected) error {
	lfd, err := p.Machine.CallFunction(nginx.FnInit, uint64(t.GuestWorkers))
	if err != nil {
		return err
	}
	t.lfd = lfd
	t.recv = make([]byte, 0, PageSize)
	return nil
}

// ListenFD returns the guest listen fd established by Init (attack replay
// drives the request path through it).
func (t *Nginx) ListenFD() uint64 { return t.lfd }

// Unit implements Target: one HTTP request/response.
func (t *Nginx) Unit(p *core.Protected, i int) (int64, error) {
	conn, err := p.Kernel.Net.Dial(nginx.Port)
	if err != nil {
		return 0, err
	}
	conn.SetRecvBuffer(t.recv)
	t.recv = nil
	if _, err := conn.ClientWrite([]byte("GET /index.html HTTP/1.1\r\nHost: bench\r\n\r\n")); err != nil {
		return 0, err
	}
	n, err := p.Machine.CallFunction(nginx.FnHandleRequest, t.lfd)
	if err != nil {
		return 0, err
	}
	body := conn.ClientReadAll()
	t.recv = body
	if int64(len(body)) != int64(n) || int64(n) != PageSize {
		return int64(n), fmt.Errorf("nginx served %d bytes (driver saw %d), want %d", int64(n), len(body), PageSize)
	}
	conn.Close()
	return int64(n), nil
}

// --- SQLite / DBT2 ---

// DBT2Terminals is the number of persistent client connections.
const DBT2Terminals = 8

// SQLite is the DBT2-like transaction driver.
type SQLite struct {
	GuestWorkers int
	Think        uint64

	lfd   uint64
	conns []*netstack.Conn
	fds   []uint64
}

// NewSQLite returns the paper-configured SQLite target (48 workers, as the
// clone count in Table 4 suggests).
func NewSQLite() *SQLite { return &SQLite{GuestWorkers: 48, Think: 1_000_000} }

// Name implements Target.
func (t *SQLite) Name() string { return "sqlite" }

// Build implements Target.
func (t *SQLite) Build() *ir.Program { return sqlitedb.Build() }

// UnitLabel implements Target.
func (t *SQLite) UnitLabel() string { return "transaction" }

// Workers implements Target.
func (t *SQLite) Workers() int { return t.GuestWorkers }

// ThinkPerUnit implements Target.
func (t *SQLite) ThinkPerUnit() uint64 { return t.Think }

// Fixture implements Target.
func (t *SQLite) Fixture(k *kernel.Kernel) error {
	return k.FS.MkdirAll("/var/db", fs.ModeRead|fs.ModeWrite|fs.ModeExec)
}

// Init implements Target: database init plus terminal connections.
func (t *SQLite) Init(p *core.Protected) error {
	lfd, err := p.Machine.CallFunction(sqlitedb.FnInit, uint64(t.GuestWorkers))
	if err != nil {
		return err
	}
	t.lfd = lfd
	t.conns = t.conns[:0]
	t.fds = t.fds[:0]
	for i := 0; i < DBT2Terminals; i++ {
		conn, err := p.Kernel.Net.Dial(sqlitedb.Port)
		if err != nil {
			return err
		}
		fd, err := p.Machine.CallFunction(sqlitedb.FnAccept, lfd)
		if err != nil {
			return err
		}
		if int64(fd) < 0 {
			return fmt.Errorf("accept returned %d", int64(fd))
		}
		t.conns = append(t.conns, conn)
		t.fds = append(t.fds, fd)
	}
	return nil
}

// ListenFD returns the guest listen fd established by Init.
func (t *SQLite) ListenFD() uint64 { return t.lfd }

// Terminal returns the i-th established terminal connection and its guest
// fd (attack replay delivers payloads through a live terminal).
func (t *SQLite) Terminal(i int) (*netstack.Conn, uint64) {
	if i < 0 || i >= len(t.conns) {
		return nil, 0
	}
	return t.conns[i], t.fds[i]
}

// Unit implements Target: one new-order transaction.
func (t *SQLite) Unit(p *core.Protected, i int) (int64, error) {
	term := i % len(t.conns)
	q := fmt.Sprintf("NEWORDER %d %d", 1000+i%500, 1+i%10)
	if _, err := t.conns[term].ClientWrite([]byte(q)); err != nil {
		return 0, err
	}
	id, err := p.Machine.CallFunction(sqlitedb.FnTxn, t.fds[term])
	if err != nil {
		return 0, err
	}
	if int64(id) != int64(1000+i%500) {
		return 0, fmt.Errorf("txn %d parsed id %d", i, int64(id))
	}
	resp := t.conns[term].ClientReadAll()
	if string(resp) != "OK" {
		return 0, fmt.Errorf("txn %d response %q", i, resp)
	}
	return int64(len(q) + len(resp) + 24), nil
}

// --- vsFTPd / dkftpbench ---

// FTPFileSize is the served file size. The paper downloads 100 MB; the
// simulated file is scaled down and the bench scales elapsed time back up.
const FTPFileSize = 256 * 1024

// Vsftpd is the dkftpbench-like download driver.
type Vsftpd struct {
	Think uint64

	lfd  uint64
	ctrl *netstack.Conn
	cfd  uint64
	port uint64
	// Buffers, when set, supplies the fixture file's bytes and the
	// download buffer, and takes the download buffer back on Release.
	Buffers *VsftpdBuffers

	// recv is the download buffer every data connection reuses, as
	// dkftpbench reuses its read buffer. Init sizes it for one whole file,
	// so the first download does not grow it by doubling.
	recv []byte
}

// VsftpdBuffers holds what vsFTPd incarnations run one after another on
// one goroutine share: the fixture file's bytes, built on first use, and
// the download buffer, which each incarnation hands to the next on
// Release. Sharing the fixture is safe because fs.WriteFile borrows it and
// copies on the first write; the download buffer is the driver's own and
// each download appends into it from length zero. Like a mem.FreeList, it
// belongs to one goroutine at a time. The zero value is empty.
type VsftpdBuffers struct {
	blob []byte
	recv []byte
}

// Cap returns the capacities VsftpdBuffers holds: the fixture file's and
// the download buffer's, in bytes.
func (b *VsftpdBuffers) Cap() (blob, recv int) { return cap(b.blob), cap(b.recv) }

// file returns the served file's bytes, built on the first call (on every
// call, for a nil b).
func (b *VsftpdBuffers) file() []byte {
	if b == nil {
		return bytes.Repeat([]byte{0x5a}, FTPFileSize)
	}
	if b.blob == nil {
		b.blob = bytes.Repeat([]byte{0x5a}, FTPFileSize)
	}
	return b.blob
}

// takeRecv returns an empty download buffer that holds a whole file: the
// one a released incarnation left in b, or a new one.
func (b *VsftpdBuffers) takeRecv() []byte {
	if b != nil && cap(b.recv) >= FTPFileSize {
		r := b.recv[:0]
		b.recv = nil
		return r
	}
	return make([]byte, 0, FTPFileSize)
}

// NewVsftpd returns the paper-configured vsFTPd target (dkftpbench runs
// clients one after another: effectively a single active session).
func NewVsftpd() *Vsftpd { return &Vsftpd{Think: 120_000} }

// Name implements Target.
func (t *Vsftpd) Name() string { return "vsftpd" }

// Build implements Target.
func (t *Vsftpd) Build() *ir.Program { return vsftpd.Build() }

// UnitLabel implements Target.
func (t *Vsftpd) UnitLabel() string { return "transfer" }

// Workers implements Target.
func (t *Vsftpd) Workers() int { return 1 }

// ThinkPerUnit implements Target.
func (t *Vsftpd) ThinkPerUnit() uint64 { return t.Think }

// Fixture implements Target.
func (t *Vsftpd) Fixture(k *kernel.Kernel) error {
	return k.FS.WriteFile("/pub/file.bin", t.Buffers.file(), fs.ModeRead)
}

// Init implements Target: server init and one logged-in session.
func (t *Vsftpd) Init(p *core.Protected) error {
	lfd, err := p.Machine.CallFunction(vsftpd.FnInit)
	if err != nil {
		return err
	}
	t.lfd = lfd
	ctrl, err := p.Kernel.Net.Dial(vsftpd.ControlPort)
	if err != nil {
		return err
	}
	if _, err := ctrl.ClientWrite([]byte("USER bench\r\nPASS x\r\n")); err != nil {
		return err
	}
	cfd, err := p.Machine.CallFunction(vsftpd.FnSession, lfd)
	if err != nil {
		return err
	}
	if int64(cfd) < 0 {
		return fmt.Errorf("session open returned %d", int64(cfd))
	}
	t.ctrl = ctrl
	t.cfd = cfd
	t.port = vsftpd.DataPortBase
	t.recv = t.Buffers.takeRecv()
	ctrl.ClientReadAll()
	return nil
}

// Release hands the download buffer to Buffers for the next incarnation
// (without Buffers it just drops it). Call it once no unit runs again.
func (t *Vsftpd) Release() {
	if b := t.Buffers; b != nil && cap(t.recv) > cap(b.recv) {
		b.recv = t.recv[:0]
	}
	t.recv = nil
}

// ListenFD returns the guest listen fd established by Init.
func (t *Vsftpd) ListenFD() uint64 { return t.lfd }

// Unit implements Target: one passive-mode download.
func (t *Vsftpd) Unit(p *core.Protected, i int) (int64, error) {
	t.port++
	if _, err := p.Machine.CallFunction(vsftpd.FnPasv, t.cfd, t.port); err != nil {
		return 0, err
	}
	data, err := p.Kernel.Net.Dial(uint16(t.port))
	if err != nil {
		return 0, err
	}
	data.SetRecvBuffer(t.recv)
	t.recv = nil
	n, err := p.Machine.CallFunction(vsftpd.FnRetr, t.cfd)
	if err != nil {
		return 0, err
	}
	got := data.ClientReadAll()
	t.recv = got
	if int64(len(got)) != int64(n) || int64(n) != FTPFileSize {
		return int64(n), fmt.Errorf("transfer %d moved %d bytes (driver saw %d)", i, int64(n), len(got))
	}
	t.ctrl.ClientReadAll()
	return int64(n), nil
}

// Apps lists the evaluation applications in the paper's order: every name
// NewTarget builds.
var Apps = []string{"nginx", "sqlite", "vsftpd"}

// NewTarget constructs the named target with paper defaults.
func NewTarget(name string) (Target, error) {
	switch name {
	case "nginx":
		return NewNginx(), nil
	case "sqlite":
		return NewSQLite(), nil
	case "vsftpd":
		return NewVsftpd(), nil
	}
	return nil, fmt.Errorf("workload: unknown target %q", name)
}
