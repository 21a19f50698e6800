package obs

import (
	"errors"
	"strings"
	"testing"
)

// addN feeds n events with sequential Seq into the recorder.
func addN(f *FlightRecorder, n int) {
	for i := 0; i < n; i++ {
		f.Add(&TrapEvent{Seq: uint64(i), Nr: 9, Name: "mmap"})
	}
}

// seqs extracts the Seq column of the recorder's oldest-first view.
func seqs(f *FlightRecorder) []uint64 {
	events := f.Events()
	out := make([]uint64, len(events))
	for i := range events {
		out[i] = events[i].Seq
	}
	return out
}

// TestFlightRecorderExactlyFull: at exactly cap events the ring is full in
// capacity terms but nothing has been overwritten yet — Events must return
// all cap events in append order, oldest first.
func TestFlightRecorderExactlyFull(t *testing.T) {
	const capacity = 4
	f := NewFlightRecorder(capacity)
	addN(f, capacity)
	if f.Len() != capacity {
		t.Fatalf("Len = %d, want %d", f.Len(), capacity)
	}
	got := seqs(f)
	want := []uint64{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
}

// TestFlightRecorderWraparoundByOne: one event past cap evicts exactly the
// oldest event and rotates the oldest-first view by one.
func TestFlightRecorderWraparoundByOne(t *testing.T) {
	const capacity = 4
	f := NewFlightRecorder(capacity)
	addN(f, capacity+1)
	if f.Len() != capacity {
		t.Fatalf("Len = %d, want %d", f.Len(), capacity)
	}
	got := seqs(f)
	want := []uint64{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
}

// TestFlightRecorderCopiesEvents: Add must copy the event, not retain the
// caller's pointer (the monitor reuses its event struct per trap).
func TestFlightRecorderCopiesEvents(t *testing.T) {
	f := NewFlightRecorder(2)
	ev := TrapEvent{Seq: 7, Name: "mmap"}
	f.Add(&ev)
	ev.Seq = 99
	ev.Name = "clobbered"
	got := f.Events()
	if got[0].Seq != 7 || got[0].Name != "mmap" {
		t.Fatalf("recorder retained caller's pointer: %+v", got[0])
	}
}

func TestFlightRecorderMinimumCapacity(t *testing.T) {
	f := NewFlightRecorder(0)
	addN(f, 3)
	got := seqs(f)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("zero-cap recorder events = %v, want [2]", got)
	}
}

// failWriter fails every write after the first n bytes-calls succeed.
type failWriter struct {
	okWrites int
	err      error
	writes   int
}

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.okWrites {
		return 0, w.err
	}
	return len(p), nil
}

// TestWriteJSONLWriteErrorPropagation: a failing event write, first,
// middle or last, is returned, and nothing is written after it.
func TestWriteJSONLWriteErrorPropagation(t *testing.T) {
	wantErr := errors.New("disk full")
	events := fixtureEvents()
	for _, okWrites := range []int{0, 1, len(events) - 1} {
		w := &failWriter{okWrites: okWrites, err: wantErr}
		if err := WriteJSONL(w, events); !errors.Is(err, wantErr) {
			t.Fatalf("okWrites=%d: WriteJSONL = %v, want %v", okWrites, err, wantErr)
		}
		if w.writes != okWrites+1 {
			t.Fatalf("okWrites=%d: kept writing after the first error: %d writes", okWrites, w.writes)
		}
	}
}

func TestWriteJSONLNilOnSuccess(t *testing.T) {
	var b strings.Builder
	events := fixtureEvents()
	if err := WriteJSONL(&b, events); err != nil {
		t.Fatalf("WriteJSONL = %v, want nil", err)
	}
	if lines := strings.Count(b.String(), "\n"); lines != len(events) {
		t.Fatalf("wrote %d lines, want %d", lines, len(events))
	}
}

// TestWriteChromeWriteErrorPropagation covers the three failure points:
// the header write, an event write, and the trailer write. Each returns
// the first error, and nothing is written after it.
func TestWriteChromeWriteErrorPropagation(t *testing.T) {
	wantErr := errors.New("pipe closed")
	events := fixtureEvents()
	// okWrites 0: header fails. 1: first event fails. 1+len: the
	// trailer fails.
	for _, okWrites := range []int{0, 1, 1 + len(events)} {
		w := &failWriter{okWrites: okWrites, err: wantErr}
		if err := WriteChrome(w, events); !errors.Is(err, wantErr) {
			t.Fatalf("okWrites=%d: WriteChrome = %v, want %v", okWrites, err, wantErr)
		}
		if w.writes != okWrites+1 {
			t.Fatalf("okWrites=%d: kept writing after the first error: %d writes", okWrites, w.writes)
		}
	}
}
