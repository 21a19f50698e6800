package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"bastion/internal/fleet"
	"bastion/internal/kernel"
	"bastion/internal/vm"
)

// hooks swaps the span wrappers in and out of one guest's boundaries:
// Machine.OS, the process tracer and Machine.Runtime.
type hooks struct {
	m    *vm.Machine
	proc *kernel.Process

	os  vm.SyscallHandler
	mon kernel.Tracer
	rt  vm.RuntimeHooks

	osW  *osSpan
	monW *tracerSpan
	rtW  *runtimeSpan
}

func newHooks(inst *instance, rec *recorder) *hooks {
	m := inst.prot.Machine
	return &hooks{
		m: m, proc: inst.prot.Proc,
		os: m.OS, mon: inst.prot.Monitor, rt: m.Runtime,
		osW:  &osSpan{inner: m.OS, rec: rec},
		monW: &tracerSpan{inner: inst.prot.Monitor, rec: rec},
		rtW:  &runtimeSpan{inner: m.Runtime, rec: rec},
	}
}

func (h *hooks) on() {
	h.m.OS, h.m.Runtime = h.osW, h.rtW
	h.proc.SetTracer(h.monW)
}

func (h *hooks) off() {
	h.m.OS, h.m.Runtime = h.os, h.rt
	h.proc.SetTracer(h.mon)
}

// hostSample is a reading of the Go runtime's cumulative counters.
type hostSample struct {
	at    time.Time
	alloc uint64  // bytes allocated
	gcs   uint64  // completed GC cycles
	gcCPU float64 // GC CPU seconds: assists, dedicated workers and pauses
}

var hostMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
	"/cpu/classes/gc/mark/dedicated:cpu-seconds",
	"/cpu/classes/gc/pause:cpu-seconds",
}

func readHost() hostSample {
	s := make([]metrics.Sample, len(hostMetrics))
	for i, name := range hostMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return hostSample{
		at:    time.Now(),
		alloc: s[0].Value.Uint64(),
		gcs:   s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64() + s[3].Value.Float64() + s[4].Value.Float64(),
	}
}

// reportRuntime sets the allocation and GC figures of a timed phase of
// units units between two samples, then forces a GC and reads the live
// heap.
func reportRuntime(r *report, h0, h1 hostSample, units int) {
	n := float64(units)
	note := fmt.Sprintf("(%d timed units)", units)
	r.set("alloc_kb_per_unit", per(float64(h1.alloc-h0.alloc)/1024, n), note)
	r.set("runtime.gc_per_kunit", per(float64(h1.gcs-h0.gcs)*1000, n), note)
	r.set("runtime.gc_cpu_pct", 100*per(h1.gcCPU-h0.gcCPU, h1.at.Sub(h0.at).Seconds()),
		"(GC assist+dedicated+pause CPU over wall time)")
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("heap_live_mb", float64(ms.HeapAlloc)/(1<<20), "(after a forced GC at the end of the timed phase)")
}

// batch is one timed batch: when it ran, how long it took, its units and
// whether it was traced.
type batch struct {
	mid    time.Time
	d      time.Duration
	units  int
	traced bool
}

// timed drives the guest for o.seconds in batches of s.batch units, after
// a forced GC, relaunching it from arts every s.epoch units and running
// reference rounds after each batch. Untraced runs time every unit; traced
// runs alternate untraced and traced batches, so the tracing overhead is
// measured under the same machine conditions as the per-layer spans. Each
// batch's times are scaled by the machine speed around it. Each retired
// guest passes the correctness gate; the last one is returned for the
// caller's.
func timed(s singleSpec, o options, inst *instance, arts *fleet.Artifacts, order *unitOrder, rec *recorder, r *report) *instance {
	lat := make([]time.Duration, 0, 1<<16)
	var batches []batch
	tracedUnits, units, relaunches := 0, 0, 0
	var tracedSteps uint64
	u, age := s.simUnits, s.simUnits

	runtime.GC()
	h0 := readHost()
	deadline := h0.at.Add(o.seconds)
batches:
	for b := 0; ; b++ {
		if s.epoch > 0 && age >= s.epoch {
			checkInstance(inst, r)
			next, _, err := launch(s, arts, 0)
			if err != nil {
				r.fail(1, "relaunch: %v", err)
				break
			}
			inst, age = next, 0
			relaunches++
		}
		traced := o.trace && b%2 == 1
		h := newHooks(inst, rec)
		if traced {
			h.on()
		}
		target := &permuted{inst.target, order}
		prot := inst.prot
		steps0 := prot.Machine.Steps
		start := time.Now()
		end := start
		for j := 0; j < s.batch; j++ {
			var id int32
			if traced {
				id = rec.beginUnit(layerUnit, u)
			}
			_, err := target.Unit(prot, u)
			if traced {
				rec.endUnit(id)
			}
			t := time.Now()
			r.attempted++
			if err != nil {
				h.off()
				r.fail(1, "unit %d: %v", u, err)
				break batches
			}
			prot.Kernel.Clock.Add(inst.target.ThinkPerUnit())
			lat = append(lat, t.Sub(end))
			end = t
			u++
			age++
			units++
		}
		if traced {
			h.off()
			tracedUnits += s.batch
			tracedSteps += prot.Machine.Steps - steps0
		}
		d := end.Sub(start)
		batches = append(batches, batch{midpoint(start, d), d, s.batch, traced})
		o.ref.after(d)
		if end.After(deadline) && (!o.trace || tracedUnits > 0) {
			break
		}
	}
	h1 := readHost()

	// Scale each complete batch to nominal machine speed; a batch that
	// stopped on an error has already failed the run.
	var rates, raw [2][]float64 // batch rates: untraced, traced
	rawLat := slices.Clone(lat)
	for i, b := range batches {
		f := o.ref.at(b.mid)
		for j := i * s.batch; j < (i+1)*s.batch; j++ {
			lat[j] = time.Duration(float64(lat[j]) * f)
		}
		ti := 0
		if b.traced {
			ti = 1
		}
		rates[ti] = append(rates[ti], float64(b.units)/b.d.Seconds()/f)
		raw[ti] = append(raw[ti], float64(b.units)/b.d.Seconds())
	}
	slices.Sort(lat)
	slices.Sort(rawLat)
	us := func(xs []time.Duration, q float64) float64 { return float64(quantile(xs, q)) / 1e3 }
	r.set("units_per_s", median(rates[0]), fmt.Sprintf("(median of %d batch rates of %d units, %d relaunches; raw %.4f)",
		len(rates[0]), s.batch, relaunches, median(raw[0])))
	r.set("unit_us_p50", us(lat, 0.50), fmt.Sprintf("(%d units; raw %.4f)", len(lat), us(rawLat, 0.50)))
	r.set("unit_us_p90", us(lat, 0.90), fmt.Sprintf("(%d units; raw %.4f)", len(lat), us(rawLat, 0.90)))
	lat, rawLat = nil, nil // the live heap is the program's, not the latency log's
	reportRuntime(r, h0, h1, units)
	reportLayers(r, rec, tracedUnits, tracedSteps, o.ref.factor())
	r.set("trace.overhead_pct", 100*(per(median(rates[0]), median(rates[1]))-1),
		fmt.Sprintf("(untraced vs traced median batch rate, %d+%d batches)", len(rates[0]), len(rates[1])))
	return inst
}

// reportLayers sets the host per-layer figures from the folded spans,
// scaled to nominal machine speed by the run's factor f.
func reportLayers(r *report, rec *recorder, units int, steps uint64, f float64) {
	us := func(l layer) float64 { return f * per(float64(rec.self[l])/1e3, float64(units)) }
	ns := func(l layer, n float64) float64 { return f * per(float64(rec.self[l]), n) }
	note := fmt.Sprintf("(%d traced units)", units)
	r.set("vm.self_us_per_unit", us(layerUnit), note+" unit span minus syscall and runtime-hook children")
	r.set("vm.ns_per_insn", ns(layerUnit, float64(steps)), fmt.Sprintf("(%d guest instructions)", steps))
	r.set("kernel.self_us_per_unit", us(layerKernel), note+" Machine.OS minus the monitor child")
	r.set("kernel.ns_per_syscall", ns(layerKernel, float64(rec.calls[layerKernel])), fmt.Sprintf("(%d syscalls)", rec.calls[layerKernel]))
	r.set("monitor.us_per_unit", us(layerMonitor), note)
	r.set("monitor.ns_per_trap", ns(layerMonitor, float64(rec.calls[layerMonitor])), fmt.Sprintf("(%d traps)", rec.calls[layerMonitor]))
	r.set("shadow.us_per_unit", us(layerShadow), note)
	r.set("shadow.ns_per_call", ns(layerShadow, float64(rec.calls[layerShadow])), fmt.Sprintf("(%d intrinsic calls)", rec.calls[layerShadow]))
}

// writeSpans writes the retained spans of a traced run under o.outDir.
func writeSpans(o options, name string, rec *recorder) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  spans of the first %d traced units written to %s\n", rec.keptUnits, path)
	return nil
}
