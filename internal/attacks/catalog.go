package attacks

import (
	"fmt"

	"bastion/internal/apps/nginx"
	"bastion/internal/apps/sqlitedb"
	"bastion/internal/apps/vsftpd"
	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/vm"
)

// stageKind selects where a ROP payload stages its fake frames.
type stageKind int

const (
	stageScratch stageKind = iota // a writable global (nginx "scratch")
	stagePool                     // the application's first mmap'd pool
	stageStack                    // above the live frames in the stack
)

// poolBase is a writable page inside the victim's first large anonymous
// mapping (the first page is often mprotect'd read-only by the apps'
// own hardening, so payloads stage one page cluster in). The address is
// deterministic; the paper's threat model grants the attacker the leak.
const poolBase uint64 = 0x7f00_0000_4000

// Catalog returns all 36 scenarios in the table's order: the 32 Table 6
// rows followed by the syscall-flow ordering family.
func Catalog() []Scenario {
	var out []Scenario
	out = append(out, ropExecScenarios()...)
	out = append(out, ropRootScenario())
	out = append(out, ropMemPermScenarios()...)
	out = append(out, directScenarios()...)
	out = append(out, indirectScenarios()...)
	out = append(out, orderingScenarios()...)
	return out
}

// ByID returns the scenario with the given ID.
func ByID(id string) (Scenario, bool) {
	for _, s := range Catalog() {
		if s.ID == id {
			return s, true
		}
	}
	return Scenario{}, false
}

// --- ROP: execute user command (13 exploit-db style payloads) ---

// ropExecVariant describes one payload flavor.
type ropExecVariant struct {
	ref    string
	stage  stageKind
	entry  string // "proc": ret2 ngx_execute_proc; "wrapper": ret2 execve stub
	victim string // function whose frame the overflow smashes
	argv   bool   // build a fake argv array as well
}

func ropExecScenarios() []Scenario {
	variants := []ropExecVariant{
		{"[1]", stageScratch, "proc", nginx.FnHandleRequest, false},
		{"[3]", stagePool, "proc", nginx.FnHandleRequest, false},
		{"[5]", stageStack, "proc", nginx.FnHandleRequest, false},
		{"[7]", stageScratch, "wrapper", nginx.FnHandleRequest, false},
		{"[8]", stagePool, "wrapper", nginx.FnHandleRequest, false},
		{"[13]", stageStack, "wrapper", nginx.FnHandleRequest, false},
		{"[15]", stageScratch, "proc", nginx.FnOutputChain, false},
		{"[16]", stagePool, "proc", nginx.FnOutputChain, true},
		{"[17]", stageScratch, "wrapper", nginx.FnOutputChain, true},
		{"[18]", stagePool, "wrapper", nginx.FnIndexedVar, false},
		{"[19]", stageScratch, "proc", nginx.FnIndexedVar, true},
		{"[20]", stageStack, "wrapper", nginx.FnIndexedVar, false},
		{"[11a]", stagePool, "proc", nginx.FnIndexedVar, true},
	}
	out := make([]Scenario, 0, len(variants))
	for i, v := range variants {
		v := v
		out = append(out, Scenario{
			ID:       fmt.Sprintf("rop-exec-%02d", i+1),
			Name:     fmt.Sprintf("ROP: execute user command (%s, %s via %s)", v.entry, stageName(v.stage), v.victim),
			Category: "rop",
			Ref:      v.ref,
			App:      "nginx",
			BlockCT:  false, BlockCF: true, BlockAI: true,
			GoalKind: kernel.EventExec, GoalDetail: "/bin/sh",
			Run: func(e *Env) { runRopExec(e, v, "/bin/sh") },
		})
	}
	return out
}

func ropRootScenario() Scenario {
	v := ropExecVariant{ref: "[11]", stage: stageScratch, entry: "proc", victim: nginx.FnHandleRequest}
	return Scenario{
		ID:       "rop-exec-root",
		Name:     "ROP: execute root command",
		Category: "rop",
		Ref:      "[11]",
		App:      "nginx",
		BlockCT:  false, BlockCF: true, BlockAI: true,
		GoalKind: kernel.EventExec, GoalDetail: "/bin/rootsh",
		Run: func(e *Env) { runRopExec(e, v, "/bin/rootsh") },
	}
}

func stageName(k stageKind) string {
	switch k {
	case stagePool:
		return "heap-pool"
	case stageStack:
		return "stack"
	}
	return "globals"
}

// runRopExec stages the payload and smashes the victim's frame.
//
// The payload forges a *valid* innermost callsite (the attacker read the
// binary), which is what makes the call-type context bypassable — the
// Table 6 "CT ×" for the ROP rows. The chain does not reconstruct a full
// legitimate frame chain, so control-flow catches it (region / unclean
// termination), and the staged exec context has no shadow history, so
// argument integrity catches it too.
func runRopExec(e *Env, v ropExecVariant, shell string) {
	stage := stageAddr(e, v.stage)
	// Attacker exec context at stage+0; shell string at stage+32; argv
	// array (optional) at stage+48.
	e.PlantString(stage+32, shell)
	argv := uint64(0)
	if v.argv {
		e.W(stage+48, stage+32)
		e.W(stage+56, 0)
		argv = stage + 48
	}
	e.W(stage+0, stage+32) // ctx->path
	e.W(stage+8, argv)     // ctx->argv
	e.W(stage+16, 0)       // ctx->envp

	execProc := e.FuncEntry(nginx.FnExecuteProc)
	wrapper := e.FuncEntry("execve")
	forged := e.CallsiteRet(nginx.FnExecuteProc, "execve")

	e.Hook(v.victim, 1, func(m *vm.Machine) error {
		pv := stage + 96
		if v.stage == stageStack {
			// Deep, unused stack space below the live frames.
			pv = m.RBP() - 0x8000
		}
		if v.entry == "proc" {
			// ngx_execute_proc(cycle, data): 2 params below the pivot.
			m.Mem.WriteUint(pv-16, 0, 8)     // cycle
			m.Mem.WriteUint(pv-8, stage, 8)  // data -> fake ctx
			m.Mem.WriteUint(pv, 0, 8)        // chain "bottom"
			m.Mem.WriteUint(pv+8, forged, 8) // unused next gadget slot
			return HijackReturn(m, pv, execProc)
		}
		// Direct ret into the execve stub with a forged valid return site.
		m.Mem.WriteUint(pv-24, stage+32, 8) // path
		m.Mem.WriteUint(pv-16, argv, 8)     // argv
		m.Mem.WriteUint(pv-8, 0, 8)         // envp
		m.Mem.WriteUint(pv, 0, 8)           // fake saved rbp: chain ends
		m.Mem.WriteUint(pv+8, forged, 8)    // forged innermost callsite
		return HijackReturn(m, pv, wrapper)
	})
	driveNginxVictim(e, v.victim)
}

// stageAddr resolves the staging base for a payload.
func stageAddr(e *Env, k stageKind) uint64 {
	switch k {
	case stagePool:
		return poolBase
	case stageStack:
		// The in-stack variant stages relative to the live frame at hook
		// time; the static parts still live in scratch.
		return e.GlobalAddr("scratch")
	}
	return e.GlobalAddr("scratch")
}

// driveNginxVictim triggers the hooked function through the normal
// request path.
func driveNginxVictim(e *Env, victim string) {
	switch victim {
	case nginx.FnHandleRequest:
		conn, err := e.P.Kernel.Net.Dial(nginx.Port)
		if err != nil {
			e.LastErr = err
			return
		}
		conn.ClientWrite([]byte("GET /index.html HTTP/1.1\r\n\r\n"))
		e.Call(nginx.FnHandleRequest, e.listenFD)
	case nginx.FnOutputChain:
		// Drive the output chain directly with a benign descriptor.
		e.Call(nginx.FnOutputChain, e.GlobalAddr("scratch")+104)
	case nginx.FnIndexedVar:
		e.Call(nginx.FnIndexedVar, 0, 0)
	}
}

// --- ROP: alter memory permission (4 payloads) ---

func ropMemPermScenarios() []Scenario {
	type variant struct {
		ref   string
		app   string
		stage stageKind
		// sf: whether the payload's first sensitive syscall also falls
		// outside the app's transition graph (the sqlite variant fires
		// mprotect from the txn loop, where mprotect edges are legal).
		sf bool
	}
	variants := []variant{
		{"[2]", "nginx", stageScratch, true},
		{"[4]", "nginx", stageStack, true},
		{"[6]", "sqlite", stagePool, false},
		{"[12]", "vsftpd", stagePool, true},
	}
	out := make([]Scenario, 0, len(variants))
	for i, v := range variants {
		v := v
		out = append(out, Scenario{
			ID:       fmt.Sprintf("rop-memperm-%02d", i+1),
			Name:     fmt.Sprintf("ROP: alter memory permission (%s)", v.app),
			Category: "rop",
			Ref:      v.ref,
			App:      v.app,
			BlockCT:  false, BlockCF: true, BlockAI: true, BlockSF: v.sf,
			GoalKind: kernel.EventMemExec, GoalDetail: "W+X",
			Run: func(e *Env) { runRopMemPerm(e, v.app, v.stage) },
		})
	}
	return out
}

func runRopMemPerm(e *Env, app string, stage stageKind) {
	// Target region to make writable+executable.
	var target uint64
	var victim string
	var forged uint64
	switch app {
	case "nginx":
		target = poolBase // first worker pool
		victim = nginx.FnHandleRequest
		forged = e.CallsiteRet("ngx_worker_init", "mprotect")
	case "sqlite":
		target = e.R(e.GlobalAddr("db_state") + 8) // row table
		victim = sqlitedb.FnTxn
		forged = e.CallsiteRet(sqlitedb.FnTxn, "mprotect")
	case "vsftpd":
		target = poolBase
		victim = vsftpd.FnSession
		forged = e.CallsiteRet(vsftpd.FnInit, "mprotect")
	}
	wrapper := e.FuncEntry("mprotect")
	staging := target // fake frames inside the (writable) target region

	e.Hook(victim, 1, func(m *vm.Machine) error {
		pv := staging + 512
		if stage == stageStack {
			pv = m.RBP() - 0x8000
		}
		m.Mem.WriteUint(pv-24, target, 8) // addr
		m.Mem.WriteUint(pv-16, 4096, 8)   // len
		m.Mem.WriteUint(pv-8, 7, 8)       // PROT_RWX
		m.Mem.WriteUint(pv, 0, 8)
		m.Mem.WriteUint(pv+8, forged, 8)
		return HijackReturn(m, pv, wrapper)
	})

	switch app {
	case "nginx":
		driveNginxVictim(e, victim)
	case "sqlite":
		e.Conn.ClientWrite([]byte("NEWORDER 7 3"))
		e.Call(sqlitedb.FnTxn, e.ClientFD())
	case "vsftpd":
		conn, err := e.P.Kernel.Net.Dial(vsftpd.ControlPort)
		if err != nil {
			e.LastErr = err
			return
		}
		conn.ClientWrite([]byte("USER x\r\n"))
		e.Call(vsftpd.FnSession, e.listenFD)
	}
}

// --- Direct system call manipulation ---

func directScenarios() []Scenario {
	out := []Scenario{
		{
			ID:       "direct-cscfi",
			Name:     "NEWTON CsCFI: corrupt code pointer to a never-used syscall (setreuid)",
			Category: "direct",
			Ref:      "[93]",
			App:      "nginx",
			BlockCT:  true, BlockCF: true, BlockAI: true,
			// setreuid is never trapped legitimately, so it has no node in
			// the transition graph at all — SF blocks it too.
			BlockSF:  true,
			GoalKind: kernel.EventSetuid, GoalDetail: "reuid",
			Run: func(e *Env) {
				// NGINX uses setuid but never setreuid: its stub exists in
				// libc yet no callsite references it — the CsCFI premise
				// (mprotect-for-the-loader in the paper). Redirect the
				// output filter pointer at the stub; the filter context
				// becomes the first argument.
				e.W(e.GlobalAddr("chain_ctx"), e.FuncEntry("setreuid"))
				e.W(e.GlobalAddr("chain_ctx")+8, 33) // ruid
				e.Call(nginx.FnOutputChain, 33)      // euid via 'in'
			},
		},
		{
			ID:       "direct-aocr-nginx1",
			Name:     "AOCR NGINX Attack 1: type-matched pointer redirect to socket",
			Category: "direct",
			Ref:      "[81]",
			App:      "nginx",
			BlockCT:  true, BlockCF: true, BlockAI: true,
			GoalKind: kernel.EventSocket, GoalDetail: "socket created",
			Run: func(e *Env) {
				// The socket stub's signature matches the get_handler
				// callsite (3 args) — the AOCR type-collision premise.
				e.W(e.GlobalAddr("var_handlers"), e.FuncEntry("socket"))
				e.Call(nginx.FnIndexedVar, 2, 0)
			},
		},
	}
	out = append(out, cveScenarios()...)
	return out
}

func cveScenarios() []Scenario {
	mk := func(id, name, app string, goalKind kernel.EventKind, goalDetail string, run func(e *Env)) Scenario {
		return Scenario{
			ID: id, Name: name, Category: "direct", Ref: id, App: app,
			BlockCT: true, BlockCF: true, BlockAI: true,
			GoalKind: goalKind, GoalDetail: goalDetail,
			Run: run,
		}
	}
	// sf marks rows whose payload syscall is also an out-of-graph
	// transition (chmod has no node anywhere; vsftpd's pool mprotect and
	// sqlite's txn-loop execve have no inbound edge from the drive point).
	sf := func(s Scenario) Scenario {
		s.BlockSF = true
		return s
	}
	return []Scenario{
		mk("cve-2013-2028", "nginx chunked-body stack smash -> execve stub", "nginx",
			kernel.EventExec, "/bin/sh", func(e *Env) {
				runRawStubROP(e, nginx.FnHandleRequest, "execve",
					[]uint64{e.GlobalAddr("scratch") + 32, 0, 0}, "/bin/sh")
				driveNginxVictim(e, nginx.FnHandleRequest)
			}),
		mk("cve-2016-10190", "ffmpeg-style heap overflow -> filter pointer -> execve stub", "nginx",
			kernel.EventExec, "/bin/sh", func(e *Env) {
				e.PlantString(e.GlobalAddr("scratch")+32, "/bin/sh")
				e.W(e.GlobalAddr("chain_ctx"), e.FuncEntry("execve"))
				e.W(e.GlobalAddr("chain_ctx")+8, e.GlobalAddr("scratch")+32)
				e.Call(nginx.FnOutputChain, 0)
			}),
		mk("cve-2016-10191", "ffmpeg-style overflow -> handler table -> execve stub", "nginx",
			kernel.EventExec, "/bin/sh", func(e *Env) {
				e.PlantString(e.GlobalAddr("scratch")+32, "/bin/sh")
				e.W(e.GlobalAddr("var_handlers"), e.FuncEntry("execve"))
				e.Call(nginx.FnIndexedVar, e.GlobalAddr("scratch")+32, 0)
			}),
		mk("cve-2015-8617", "php-style format string -> OOB handler entry -> execve stub", "nginx",
			kernel.EventExec, "/bin/sh", func(e *Env) {
				sc := e.GlobalAddr("scratch")
				e.PlantString(sc+32, "/bin/sh")
				e.W(sc, e.FuncEntry("execve")) // fake entry handler
				e.W(sc+8, 0)                   // fake entry data
				idx := (sc - e.GlobalAddr("var_handlers")) / 16
				e.Call(nginx.FnIndexedVar, sc+32, idx)
			}),
		sf(mk("cve-2012-0809", "sudo-style corruption -> chmod stub (setuid bit)", "vsftpd",
			kernel.EventChmod, "/pub/file.bin", func(e *Env) {
				runVsftpdOverflow(e, "chmod",
					[]uint64{poolBase + 256, 0o4777}, "/pub/file.bin", poolBase+256)
			})),
		sf(mk("cve-2014-8668", "libtiff-style overflow -> mprotect stub (RWX)", "vsftpd",
			kernel.EventMemExec, "W+X", func(e *Env) {
				runVsftpdOverflow(e, "mprotect", []uint64{poolBase, 4096, 7}, "", 0)
			})),
		sf(mk("cve-2014-1912", "python-style buffer overflow -> execve stub", "sqlite",
			kernel.EventExec, "/bin/sh", func(e *Env) {
				tbl := e.R(e.GlobalAddr("db_state") + 8)
				e.PlantString(tbl+600, "/bin/sh")
				runRawStubROPAt(e, sqlitedb.FnTxn, "execve",
					[]uint64{tbl + 600, 0, 0}, tbl+704)
				e.Conn.ClientWrite([]byte("NEWORDER 9 1"))
				e.Call(sqlitedb.FnTxn, e.ClientFD())
			})),
	}
}

// runRawStubROP smashes the victim's frame to return into a syscall stub
// with a garbage return site (the classic exploit payload that never heard
// of BASTION): staged in nginx scratch.
func runRawStubROP(e *Env, victim, stub string, args []uint64, shell string) {
	sc := e.GlobalAddr("scratch")
	if shell != "" {
		e.PlantString(sc+32, shell)
	}
	runRawStubROPAt(e, victim, stub, args, sc+96)
}

// runRawStubROPAt stages the fake stub frame at pv.
func runRawStubROPAt(e *Env, victim, stub string, args []uint64, pv uint64) {
	entry := e.FuncEntry(stub)
	e.Hook(victim, 1, func(m *vm.Machine) error {
		n := uint64(len(args))
		for i, a := range args {
			m.Mem.WriteUint(pv-8*(n-uint64(i)), a, 8)
		}
		m.Mem.WriteUint(pv, 0, 8)
		m.Mem.WriteUint(pv+8, 0x00414141, 8) // raw gadget address
		return HijackReturn(m, pv, entry)
	})
}

// runVsftpdOverflow delivers a real oversized login command that smashes
// ftp_session_open's 64-byte buffer, pivoting into a pre-staged fake frame
// in the session pool.
func runVsftpdOverflow(e *Env, stub string, args []uint64, plantStr string, plantAt uint64) {
	if plantStr != "" {
		e.PlantString(plantAt, plantStr)
	}
	pv := poolBase + 1024
	n := uint64(len(args))
	for i, a := range args {
		e.W(pv-8*(n-uint64(i)), a)
	}
	e.W(pv, 0)
	e.W(pv+8, 0x00414141)

	// Payload: 72 pad bytes reach the saved rbp, then [rbp]=pv,
	// [rbp+8]=stub entry.
	payload := make([]byte, 88)
	for i := 0; i < 72; i++ {
		payload[i] = 'A'
	}
	putLE(payload[72:], pv)
	putLE(payload[80:], e.FuncEntry(stub))

	conn, err := e.P.Kernel.Net.Dial(vsftpd.ControlPort)
	if err != nil {
		e.LastErr = err
		return
	}
	conn.ClientWrite(payload)
	e.Call(vsftpd.FnSession, e.listenFD)
}

func putLE(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// --- Indirect system call manipulation ---

func indirectScenarios() []Scenario {
	return []Scenario{
		{
			ID:       "ind-newton-cpi",
			Name:     "NEWTON CPI: non-pointer index corruption -> chmod stub",
			Category: "indirect",
			Ref:      "[93]",
			App:      "nginx",
			BlockCT:  true, BlockCF: true, BlockAI: true,
			// chmod never appears in nginx's graph: no node, SF blocks.
			BlockSF:  true,
			GoalKind: kernel.EventChmod, GoalDetail: "/bin/sh",
			Run: func(e *Env) {
				// Listing 2: corrupt only the index; the fake v[] entry
				// lives in attacker-seeded globals.
				sc := e.GlobalAddr("scratch")
				e.PlantString(sc+32, "/bin/sh")
				e.W(sc, e.FuncEntry("chmod")) // fake get_handler
				e.W(sc+8, 0o4777)             // fake data (mode)
				idx := (sc - e.GlobalAddr("var_handlers")) / 16
				e.Call(nginx.FnIndexedVar, sc+32, idx)
			},
		},
		{
			ID:       "ind-aocr-apache",
			Name:     "AOCR Apache: hijack differently-typed hook onto exec_cmd",
			Category: "indirect",
			Ref:      "[81]",
			App:      "apache",
			BlockCT:  false, BlockCF: true, BlockAI: true,
			GoalKind: kernel.EventExec, GoalDetail: "/bin/sh",
			Run: func(e *Env) {
				lb := e.GlobalAddr("logbuf")
				e.PlantString(lb, "/bin/sh")
				e.W(e.GlobalAddr("log_hook"), e.FuncEntry("exec_cmd"))
				e.Call("ap_run_log", lb, 8)
			},
		},
		{
			ID:       "ind-aocr-nginx2",
			Name:     "AOCR NGINX Attack 2: corrupt globals, let the master loop exec",
			Category: "indirect",
			Ref:      "[81]",
			App:      "nginx",
			BlockCT:  false, BlockCF: false, BlockAI: true,
			GoalKind: kernel.EventExec, GoalDetail: "/bin/sh",
			Run: func(e *Env) {
				sc := e.GlobalAddr("scratch")
				e.PlantString(sc+32, "/bin/sh")
				e.W(e.GlobalAddr("exec_ctx"), sc+32) // ctx->path
				e.W(e.GlobalAddr("upgrade_requested"), 1)
				e.Call(nginx.FnMasterCycle)
			},
		},
		{
			ID:       "ind-coop",
			Name:     "COOP: counterfeit object corrupts mprotect arguments on a legit path",
			Category: "indirect",
			Ref:      "[34]",
			App:      "sqlite",
			BlockCT:  false, BlockCF: false, BlockAI: true,
			GoalKind: kernel.EventMemExec, GoalDetail: "W+X",
			Run: func(e *Env) {
				// Redirect the page-cache pointer at the row table and
				// flip the spilled prot argument to RWX at the stub
				// boundary — control flow stays fully legitimate.
				tbl := e.R(e.GlobalAddr("db_state") + 8)
				e.W(e.GlobalAddr("db_state")+24, tbl)
				e.Hook("mprotect", 0, func(m *vm.Machine) error {
					addr, err := m.SlotAddr("p2")
					if err != nil {
						return err
					}
					return m.Mem.WriteUint(addr, 7, 8)
				})
				// Drive transactions until the periodic mprotect fires.
				for i := 0; i < sqlitedb.MprotectPeriod; i++ {
					e.Conn.ClientWrite([]byte("NEWORDER 5 2"))
					e.Call(sqlitedb.FnTxn, e.ClientFD())
					if e.P.Machine.Halted() {
						return
					}
				}
			},
		},
		{
			ID:       "ind-jujutsu",
			Name:     "Control Jujutsu: full-function reuse of ngx_execute_proc",
			Category: "indirect",
			Ref:      "[38]",
			App:      "nginx",
			BlockCT:  false, BlockCF: false, BlockAI: true,
			GoalKind: kernel.EventExec, GoalDetail: "/bin/sh",
			Run: func(e *Env) {
				// ngx_execute_proc is legitimately address-taken (spawn
				// table) and type-matches the output-filter callsite, so
				// fine-grained CFI-style checks pass. The chain descriptor
				// is corrupted into a counterfeit exec context just before
				// the dispatch.
				sc := e.GlobalAddr("scratch")
				e.PlantString(sc+32, "/bin/sh")
				e.W(e.GlobalAddr("chain_ctx"), e.FuncEntry(nginx.FnExecuteProc))
				hookBeforeCall(e, nginx.FnHandleRequest, nginx.FnOutputChain, func(m *vm.Machine) error {
					chain, err := m.SlotAddr("chain")
					if err != nil {
						return err
					}
					if err := m.Mem.WriteUint(chain, sc+32, 8); err != nil { // path
						return err
					}
					if err := m.Mem.WriteUint(chain+8, 0, 8); err != nil { // argv
						return err
					}
					return m.Mem.WriteUint(chain+16, 0, 8) // envp
				})
				driveNginxVictim(e, nginx.FnHandleRequest)
			},
		},
	}
}

// hookBeforeCall installs a hook immediately before the first call to
// target within fn (post-instrumentation indices).
func hookBeforeCall(e *Env, fn, target string, h vm.Hook) {
	f := e.P.Machine.Prog.Func(fn)
	if f == nil {
		panic("attacks: no function " + fn)
	}
	for i := range f.Code {
		in := &f.Code[i]
		if in.Kind == ir.Call && in.Sym == target {
			e.Hook(fn, i, h)
			return
		}
	}
	panic("attacks: no call to " + target + " in " + fn)
}

// --- Ordering: syscall-flow violations with individually legal calls ---

// orderingScenarios are attacks in which the adversary never corrupts a
// callsite, a stack, or an argument: every system call it causes is one
// the application makes legitimately, with the arguments the metadata
// expects, from the real instruction. What is wrong is *when* — a
// privileged lifecycle phase is replayed after the program moved past it,
// or a transfer prelude is skipped. Call-type, control-flow, and
// argument-integrity all verify per-trap facts and pass; only the
// syscall-flow context, which checks each trapped syscall against the
// transition graph derived from the program's CFG, observes that the
// sequence itself is impossible.
func orderingScenarios() []Scenario {
	return []Scenario{
		{
			ID:       "ord-setuid-replay",
			Name:     "worker re-init replays privilege setup after serving",
			Category: "ordering",
			Ref:      "§4 syscall-flow",
			App:      "nginx",
			BlockSF:  true,
			GoalKind: kernel.EventSetuid, GoalDetail: "-> 33",
			Run: func(e *Env) {
				// Serve one legitimate request, then re-enter the worker
				// initializer — a phase only reachable before serving. The
				// replayed setuid(33) would let an attacker who regained
				// root re-establish a known credential state.
				driveNginxVictim(e, nginx.FnHandleRequest)
				e.Call("ngx_worker_init", 0)
			},
		},
		{
			ID:       "ord-reexec-after-drop",
			Name:     "CGI exec path re-invoked after the privilege drop",
			Category: "ordering",
			Ref:      "§4 syscall-flow",
			App:      "apache",
			BlockSF:  true,
			GoalKind: kernel.EventExec, GoalDetail: "apachectl",
			Run: func(e *Env) {
				// The server's exec window closes when the master drops to
				// the worker identity; in the flow graph every execve
				// precedes the drop's setuid/setgid. Run the legitimate
				// lifecycle up to the drop, dispatch a benign log write,
				// then re-invoke the exec path: the (attacker-controllable)
				// command now runs after the drop — an ordering the CFG
				// cannot produce.
				e.Call("ap_drop_privileges")
				e.Call("ap_run_log", e.GlobalAddr("logbuf"), 4)
				e.Call("ap_exec_direct")
			},
		},
		{
			ID:       "ord-sandbox-reseal",
			Name:     "ftp re-init replays the privilege drop after a session",
			Category: "ordering",
			Ref:      "§4 syscall-flow",
			App:      "vsftpd",
			BlockSF:  true,
			GoalKind: kernel.EventSetuid, GoalDetail: "-> 99",
			Run: func(e *Env) {
				// Open a real session (login + per-session credentials),
				// then replay ftp_init: its mmap/socket/bind prelude and
				// setuid(99) only ever precede the first session.
				conn, err := e.P.Kernel.Net.Dial(vsftpd.ControlPort)
				if err != nil {
					e.LastErr = err
					return
				}
				conn.ClientWrite([]byte("USER anon\r\nPASS x\r\n"))
				e.Call(vsftpd.FnSession, e.listenFD)
				e.Call(vsftpd.FnInit)
			},
		},
		{
			ID:       "ord-skipped-prelude",
			Name:     "second PASV listener opened without completing RETR",
			Category: "ordering",
			Ref:      "§4 syscall-flow",
			App:      "vsftpd",
			BlockSF:  true,
			GoalKind: kernel.EventSocket, GoalDetail: fmt.Sprintf("listening on port %d", vsftpd.DataPortBase+7),
			Run: func(e *Env) {
				// In the daemon's lifecycle a passive listener is always
				// consumed by the RETR that follows it. Skipping that
				// prelude and opening a second unannounced data listener
				// gives the attacker a socket no transfer accounts for.
				conn, err := e.P.Kernel.Net.Dial(vsftpd.ControlPort)
				if err != nil {
					e.LastErr = err
					return
				}
				conn.ClientWrite([]byte("USER anon\r\nPASS x\r\n"))
				cfd := e.Call(vsftpd.FnSession, e.listenFD)
				e.Call(vsftpd.FnPasv, cfd, uint64(vsftpd.DataPortBase))
				e.Call(vsftpd.FnPasv, cfd, uint64(vsftpd.DataPortBase+7))
			},
		},
	}
}
