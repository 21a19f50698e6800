package obs

import "strings"

// FlightRecorder keeps the last N trap events in a bounded ring. When a
// violation (or a tenant crash in a fleet) occurs, the recorder's contents
// are the syscall decision history that led to it — the forensic record
// the paper's kill-on-violation policy otherwise destroys with the guest.
type FlightRecorder struct {
	ring []TrapEvent
	next int // the oldest event's slot once the ring is full
}

// NewFlightRecorder returns a recorder holding the last capacity events.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &FlightRecorder{ring: make([]TrapEvent, 0, capacity)}
}

// Add records a copy of the event, evicting the oldest when full.
func (f *FlightRecorder) Add(ev *TrapEvent) {
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, *ev)
		return
	}
	f.ring[f.next] = *ev
	f.next = (f.next + 1) % len(f.ring)
}

// Events returns the recorded events oldest-first, as a fresh slice.
func (f *FlightRecorder) Events() []TrapEvent {
	out := make([]TrapEvent, 0, len(f.ring))
	out = append(out, f.ring[f.next:]...)
	return append(out, f.ring[:f.next]...)
}

// Len returns the number of recorded events.
func (f *FlightRecorder) Len() int { return len(f.ring) }

// DumpJSONL renders the recorded history oldest-first as deterministic
// JSON lines — the dump attached to a Violation.
func (f *FlightRecorder) DumpJSONL() string {
	var b strings.Builder
	WriteJSONL(&b, f.Events())
	return b.String()
}
