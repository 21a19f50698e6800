package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"bastion/internal/kernel"
	"bastion/internal/vm"
)

// layer names one wrapped boundary of the simulator.
type layer uint8

const (
	layerUnit    layer = iota // Target.Unit: the VM interpreting the guest, plus the driver
	layerKernel               // Machine.OS.Syscall: the simulated kernel
	layerMonitor              // Process tracer Trap: the BASTION monitor
	layerShadow               // Machine.Runtime hooks: shadow-memory intrinsics
	layerFleet                // fleet.Run: a whole fleet, opaque from outside
	numLayers
)

var layerNames = [numLayers]string{"unit", "kernel", "monitor", "shadow", "fleet.run"}

// span is one timed call across a wrapped boundary. Start and End are
// nanoseconds since the recorder's epoch; Parent indexes the enclosing
// span (-1 for a unit span) in the same slice.
type span struct {
	Layer  layer
	Unit   int
	Parent int32
	Start  int64
	End    int64
}

// recorder keeps the spans of the unit in flight, folds each finished
// unit into per-layer self-time totals, and retains the spans of the
// first keepUnits units in memory until the run ends, when write puts
// them out once.
type recorder struct {
	epoch     time.Time
	unit      int
	open      []int32
	cur       []span
	kept      []span
	keepUnits int
	keptUnits int
	written   bool

	// covered and reach are fold's per-span scratch, reused across units.
	covered, reach []int64

	// self is the per-layer self time (duration minus the time covered
	// by child spans); calls counts spans per layer.
	self  [numLayers]time.Duration
	calls [numLayers]int
}

func newRecorder(keepUnits int) *recorder {
	return &recorder{epoch: time.Now(), keepUnits: keepUnits}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under the innermost open span and returns its id.
func (r *recorder) begin(l layer) int32 {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.cur))
	r.cur = append(r.cur, span{Layer: l, Unit: r.unit, Parent: parent, Start: r.now()})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	r.cur[id].End = r.now()
	r.open = r.open[:len(r.open)-1]
}

// beginUnit starts the span tree of unit u, rooted at a span of layer l.
func (r *recorder) beginUnit(l layer, u int) int32 {
	r.unit = u
	r.cur = r.cur[:0]
	return r.begin(l)
}

// endUnit closes the unit span and folds the unit's tree into the
// per-layer totals.
func (r *recorder) endUnit(id int32) {
	r.end(id)
	r.fold()
	if r.keptUnits < r.keepUnits {
		base := int32(len(r.kept))
		for _, s := range r.cur {
			if s.Parent >= 0 {
				s.Parent += base
			}
			r.kept = append(r.kept, s)
		}
		r.keptUnits++
	}
}

// fold adds each span of the finished unit to its layer's self time.
// Children are appended in start order after their parent, so one pass
// accumulates, per parent, the union of its children's intervals clipped
// to the parent: the time the children cover.
func (r *recorder) fold() {
	n := len(r.cur)
	if cap(r.covered) < n {
		r.covered, r.reach = make([]int64, n), make([]int64, n)
	}
	r.covered, r.reach = r.covered[:n], r.reach[:n]
	clear(r.covered)
	for i, s := range r.cur {
		if p := s.Parent; p >= 0 {
			lo, hi := max(s.Start, r.reach[p]), min(s.End, r.cur[p].End)
			if hi > lo {
				r.covered[p] += hi - lo
			}
			r.reach[p] = max(r.reach[p], hi)
		}
		r.reach[i] = s.Start
	}
	for i, s := range r.cur {
		r.self[s.Layer] += time.Duration(s.End - s.Start - r.covered[i])
		r.calls[s.Layer]++
	}
}

// write puts the retained spans out as JSON lines. It runs once, when the
// benchmark ends; a second call is an error.
func (r *recorder) write(w io.Writer) error {
	if r.written {
		return errors.New("perfbench: spans already written")
	}
	r.written = true
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, s := range r.kept {
		line := struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Unit   int    `json:"unit"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, layerNames[s.Layer], s.Unit, s.Parent, s.Start, s.End}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("perfbench: writing spans: %w", err)
		}
	}
	return bw.Flush()
}

// osSpan wraps Machine.OS: one kernel span per syscall.
type osSpan struct {
	inner vm.SyscallHandler
	rec   *recorder
}

func (o *osSpan) Syscall(m *vm.Machine) (int64, error) {
	id := o.rec.begin(layerKernel)
	ret, err := o.inner.Syscall(m)
	o.rec.end(id)
	return ret, err
}

// tracerSpan wraps the process tracer: one monitor span per trap.
type tracerSpan struct {
	inner kernel.Tracer
	rec   *recorder
}

func (t *tracerSpan) Trap(p *kernel.Process) error {
	id := t.rec.begin(layerMonitor)
	err := t.inner.Trap(p)
	t.rec.end(id)
	return err
}

// trapCycles wraps the process tracer to record each trap's simulated
// cycles, read from the clock and never advanced here.
type trapCycles struct {
	inner  kernel.Tracer
	cycles []uint64
}

func (t *trapCycles) Trap(p *kernel.Process) error {
	c0 := p.K.Clock.Cycles
	err := t.inner.Trap(p)
	t.cycles = append(t.cycles, p.K.Clock.Cycles-c0)
	return err
}

// runtimeSpan wraps Machine.Runtime: one shadow span per intrinsic.
type runtimeSpan struct {
	inner vm.RuntimeHooks
	rec   *recorder
}

func (r *runtimeSpan) CtxWriteMem(m *vm.Machine, addr uint64, size int64) error {
	id := r.rec.begin(layerShadow)
	err := r.inner.CtxWriteMem(m, addr, size)
	r.rec.end(id)
	return err
}

func (r *runtimeSpan) CtxBindMem(m *vm.Machine, site uint64, pos int, addr uint64) error {
	id := r.rec.begin(layerShadow)
	err := r.inner.CtxBindMem(m, site, pos, addr)
	r.rec.end(id)
	return err
}

func (r *runtimeSpan) CtxBindConst(m *vm.Machine, site uint64, pos int, val int64) error {
	id := r.rec.begin(layerShadow)
	err := r.inner.CtxBindConst(m, site, pos, val)
	r.rec.end(id)
	return err
}
