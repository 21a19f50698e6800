// Package obs is BASTION's deterministic telemetry layer: a structured
// decision trace of every monitor trap, a metrics registry of counters and
// fixed-bucket histograms, and a bounded flight recorder that preserves
// the syscall history leading up to a violation.
//
// Everything in this package is clocked by the simulator's cycle model —
// no wall clock anywhere — so traces, metric snapshots, and flight-
// recorder dumps are byte-reproducible across runs and across machines,
// and can be pinned by golden tests. Observing a run never charges cycles
// to the shared clock: telemetry reads the clock, it does not advance it,
// so a traced run and an untraced run produce identical verdicts and
// identical cycle accounts.
package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Verdict is the outcome of one enforcement context on one trap.
type Verdict uint8

// Verdicts.
const (
	// VerdictSkip means the context did not run (disabled, or the mode
	// stops before checking).
	VerdictSkip Verdict = iota
	// VerdictPass means the context ran and accepted the trap.
	VerdictPass
	// VerdictViolation means the context rejected the trap.
	VerdictViolation
)

func (v Verdict) String() string {
	switch v {
	case VerdictSkip:
		return "skip"
	case VerdictPass:
		return "pass"
	case VerdictViolation:
		return "violation"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// CycleBreakdown attributes one trap's monitor cycles to its stages, in
// pipeline order: state fetch (trap round trip + register read), stack
// unwind, syscall-flow transition check, and the three per-trap context
// checks. The sum of the fields equals End-Start
// on the owning TrapEvent.
type CycleBreakdown struct {
	Fetch  uint64
	Unwind uint64
	CT     uint64
	CF     uint64
	AI     uint64
	SF     uint64
}

// Total sums the per-stage charges.
func (c CycleBreakdown) Total() uint64 {
	return c.Fetch + c.Unwind + c.CT + c.CF + c.AI + c.SF
}

// TrapEvent is one structured decision-trace record: everything the
// monitor decided about one SECCOMP_RET_TRACE stop, with cycle-clock
// timestamps and the per-stage cost attribution.
type TrapEvent struct {
	// Seq is the trap's sequence number within its monitor (0-based).
	Seq uint64
	// Tenant is the owning tenant index in a fleet run, stamped by the
	// fleet (the monitor leaves it 0).
	Tenant int
	// Nr and Name identify the trapped syscall.
	Nr   uint32
	Name string
	// Start and End are cycle-clock readings at trap entry and exit.
	Start, End uint64
	// CT, CF, AI, SF are the per-context verdicts.
	CT, CF, AI, SF Verdict
	// Cycles attributes End-Start to the monitor's stages.
	Cycles CycleBreakdown
	// UnwindDepth is the number of stack frames fetched.
	UnwindDepth int
	// PointeeBytes counts extended-argument pointee bytes verified
	// against shadow memory.
	PointeeBytes uint64
	// Violation is the violation description when the trap was rejected
	// ("" on a pass).
	Violation string
	// Gen is the artifact generation the verdicts were issued under
	// (policy hot reload); 0 is the launch generation and is omitted from
	// the JSON encoding, keeping pre-reload traces byte-stable.
	Gen uint64
}

// Violated reports whether any context rejected the trap.
func (e *TrapEvent) Violated() bool {
	return e.CT == VerdictViolation || e.CF == VerdictViolation ||
		e.AI == VerdictViolation || e.SF == VerdictViolation
}

// appendJSON renders the event as a single JSON object with a fixed field
// order, so encoded traces are byte-stable. Strings are quoted with
// strconv for correct escaping.
func (e *TrapEvent) appendJSON(b *strings.Builder) {
	fmt.Fprintf(b, `{"seq":%d,"tenant":%d,"nr":%d,"name":%s,"start":%d,"end":%d`,
		e.Seq, e.Tenant, e.Nr, strconv.Quote(e.Name), e.Start, e.End)
	fmt.Fprintf(b, `,"ct":%q,"cf":%q,"ai":%q,"sf":%q`, e.CT, e.CF, e.AI, e.SF)
	fmt.Fprintf(b, `,"cycles":{"fetch":%d,"unwind":%d,"ct":%d,"cf":%d,"ai":%d,"sf":%d}`,
		e.Cycles.Fetch, e.Cycles.Unwind, e.Cycles.CT, e.Cycles.CF, e.Cycles.AI, e.Cycles.SF)
	fmt.Fprintf(b, `,"depth":%d,"pointee":%d`, e.UnwindDepth, e.PointeeBytes)
	if e.Violation != "" {
		fmt.Fprintf(b, `,"violation":%s`, strconv.Quote(e.Violation))
	}
	if e.Gen != 0 {
		fmt.Fprintf(b, `,"gen":%d`, e.Gen)
	}
	b.WriteByte('}')
}

// JSON returns the event's deterministic one-line JSON encoding.
func (e *TrapEvent) JSON() string {
	var b strings.Builder
	e.appendJSON(&b)
	return b.String()
}

// Sink receives one event per trap. Implementations must not retain the
// pointer past the call: the monitor reuses the event storage.
type Sink interface {
	Emit(ev *TrapEvent)
}

// BufferSink collects events in memory (fleet tenants, tests).
type BufferSink struct {
	Events []TrapEvent
}

// Emit appends a copy of the event.
func (s *BufferSink) Emit(ev *TrapEvent) { s.Events = append(s.Events, *ev) }
