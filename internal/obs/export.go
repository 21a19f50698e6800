package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteJSONL writes events to w as JSON lines, one object per event. The
// encoding has a fixed field order, so a trace file is byte-identical
// across runs that produce the same event sequence. It returns the first
// write error and writes nothing after it.
func WriteJSONL(w io.Writer, events []TrapEvent) error {
	for i := range events {
		var b strings.Builder
		events[i].appendJSON(&b)
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome writes events to w as one document in the Chrome
// trace-event format, loadable by chrome://tracing and Perfetto. Each trap
// is one complete ("ph":"X") event on the tenant's process track;
// timestamps are the simulated cycle clock converted to microseconds at
// 1 GHz (1000 cycles = 1 µs), rendered with fixed precision so traces are
// byte-stable. It returns the first write error and writes nothing after
// it.
func WriteChrome(w io.Writer, events []TrapEvent) error {
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i := range events {
		ev := &events[i]
		var b strings.Builder
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, `{"name":%s,"cat":"trap","ph":"X","pid":%d,"tid":1,"ts":%s,"dur":%s`,
			strconv.Quote(ev.Name), ev.Tenant, micros(ev.Start), micros(ev.End-ev.Start))
		fmt.Fprintf(&b, `,"args":{"seq":%d,"nr":%d,"ct":%q,"cf":%q,"ai":%q,"sf":%q`,
			ev.Seq, ev.Nr, ev.CT, ev.CF, ev.AI, ev.SF)
		fmt.Fprintf(&b, `,"fetch":%d,"unwind":%d,"ct_cyc":%d,"cf_cyc":%d,"ai_cyc":%d,"sf_cyc":%d,"depth":%d,"pointee":%d`,
			ev.Cycles.Fetch, ev.Cycles.Unwind,
			ev.Cycles.CT, ev.Cycles.CF, ev.Cycles.AI, ev.Cycles.SF, ev.UnwindDepth, ev.PointeeBytes)
		if ev.Violation != "" {
			fmt.Fprintf(&b, `,"violation":%s`, strconv.Quote(ev.Violation))
		}
		b.WriteString("}}")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// micros renders a cycle count as microseconds at 1 GHz with nanosecond
// precision, deterministically.
func micros(cycles uint64) string {
	return fmt.Sprintf("%d.%03d", cycles/1000, cycles%1000)
}
