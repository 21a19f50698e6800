package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// JSONLSink streams events as one JSON object per line. The encoding has
// a fixed field order, so a trace file is byte-identical across runs that
// produce the same event sequence.
type JSONLSink struct {
	w   io.Writer
	err error
}

// NewJSONL returns a sink writing JSON lines to w.
func NewJSONL(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit writes one event line.
func (s *JSONLSink) Emit(ev *TrapEvent) {
	if s.err != nil {
		return
	}
	var b strings.Builder
	ev.appendJSON(&b)
	b.WriteByte('\n')
	_, s.err = io.WriteString(s.w, b.String())
}

// Close reports the first write error (the writer itself is not closed;
// the caller owns it).
func (s *JSONLSink) Close() error { return s.err }

// ChromeSink streams events in the Chrome trace-event format, loadable by
// chrome://tracing and Perfetto. Each trap is one complete ("ph":"X")
// event on the tenant's process track; timestamps are the simulated cycle
// clock converted to microseconds at 1 GHz (1000 cycles = 1 µs), rendered
// with fixed precision so traces are byte-stable.
type ChromeSink struct {
	w     io.Writer
	err   error
	first bool
}

// NewChrome returns a sink writing a Chrome trace to w. Close must be
// called to terminate the JSON document.
func NewChrome(w io.Writer) *ChromeSink {
	s := &ChromeSink{w: w, first: true}
	_, s.err = io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	return s
}

// micros renders a cycle count as microseconds at 1 GHz with nanosecond
// precision, deterministically.
func micros(cycles uint64) string {
	return fmt.Sprintf("%d.%03d", cycles/1000, cycles%1000)
}

// Emit writes one complete trace event.
func (s *ChromeSink) Emit(ev *TrapEvent) {
	if s.err != nil {
		return
	}
	var b strings.Builder
	if s.first {
		s.first = false
	} else {
		b.WriteString(",\n")
	}
	dur := ev.End - ev.Start
	fmt.Fprintf(&b, `{"name":%s,"cat":"trap","ph":"X","pid":%d,"tid":1,"ts":%s,"dur":%s`,
		strconv.Quote(ev.Name), ev.Tenant, micros(ev.Start), micros(dur))
	fmt.Fprintf(&b, `,"args":{"seq":%d,"nr":%d,"ct":%q,"cf":%q,"ai":%q,"sf":%q`,
		ev.Seq, ev.Nr, ev.CT, ev.CF, ev.AI, ev.SF)
	fmt.Fprintf(&b, `,"fetch":%d,"unwind":%d,"ct_cyc":%d,"cf_cyc":%d,"ai_cyc":%d,"sf_cyc":%d,"depth":%d,"pointee":%d`,
		ev.Cycles.Fetch, ev.Cycles.Unwind,
		ev.Cycles.CT, ev.Cycles.CF, ev.Cycles.AI, ev.Cycles.SF, ev.UnwindDepth, ev.PointeeBytes)
	if ev.Violation != "" {
		fmt.Fprintf(&b, `,"violation":%s`, strconv.Quote(ev.Violation))
	}
	b.WriteString("}}")
	_, s.err = io.WriteString(s.w, b.String())
}

// Close terminates the trace document and reports the first write error.
func (s *ChromeSink) Close() error {
	if s.err != nil {
		return s.err
	}
	_, s.err = io.WriteString(s.w, "\n]}\n")
	return s.err
}

// WriteChrome writes events to w as a complete Chrome trace document.
func WriteChrome(w io.Writer, events []TrapEvent) error {
	sink := NewChrome(w)
	EmitAll(sink, events)
	return sink.Close()
}
