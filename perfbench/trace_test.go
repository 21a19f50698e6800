package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestFoldSelfTime checks self time on a synthetic nested tree: each
// span's duration minus the part of it its children cover.
func TestFoldSelfTime(t *testing.T) {
	rec := newRecorder(0)
	rec.cur = []span{
		{Layer: layerUnit, Parent: -1, Start: 0, End: 100},
		{Layer: layerKernel, Parent: 0, Start: 10, End: 40},
		{Layer: layerMonitor, Parent: 1, Start: 20, End: 30},
		{Layer: layerShadow, Parent: 0, Start: 50, End: 55},
		{Layer: layerKernel, Parent: 0, Start: 60, End: 90},
		{Layer: layerMonitor, Parent: 4, Start: 60, End: 90},
		// Overlapping siblings count their union once, clipped to the parent.
		{Layer: layerShadow, Parent: 0, Start: 95, End: 99},
		{Layer: layerShadow, Parent: 0, Start: 97, End: 120},
	}
	rec.fold()
	want := [numLayers]time.Duration{
		layerUnit:    100 - 30 - 5 - 30 - 5,
		layerKernel:  (30 - 10) + (30 - 30),
		layerMonitor: 10 + 30,
		layerShadow:  5 + 4 + 23,
	}
	if rec.self != want {
		t.Fatalf("self times %v, want %v", rec.self, want)
	}
	if rec.calls != [numLayers]int{1, 2, 2, 3, 0} {
		t.Fatalf("calls %v", rec.calls)
	}
}

// TestSpanParentsAcrossWrappers runs real nginx-fs units through the
// Machine.OS, tracer and Machine.Runtime wrappers and checks the linking:
// monitor spans sit under kernel spans, kernel and shadow spans under the
// unit span, and the span counts match the process's own counters.
func TestSpanParentsAcrossWrappers(t *testing.T) {
	s := singleSpecs["nginx-fs"]
	inst, _, _, err := coldSetup(s)
	if err != nil {
		t.Fatal(err)
	}
	const units = 3
	rec := newRecorder(units)
	h := newHooks(inst, rec)
	before := readSim(inst.prot)
	h.on()
	for u := 0; u < units; u++ {
		id := rec.beginUnit(layerUnit, u)
		if _, err := inst.target.Unit(inst.prot, u); err != nil {
			t.Fatal(err)
		}
		rec.endUnit(id)
	}
	h.off()
	d := readSim(inst.prot).minus(before)

	want := map[layer]layer{layerKernel: layerUnit, layerShadow: layerUnit, layerMonitor: layerKernel}
	for i, sp := range rec.kept {
		if sp.Layer == layerUnit {
			if sp.Parent != -1 {
				t.Fatalf("unit span %d has parent %d", i, sp.Parent)
			}
			continue
		}
		p := rec.kept[sp.Parent]
		if p.Layer != want[sp.Layer] || p.Unit != sp.Unit || p.Start > sp.Start || p.End < sp.End {
			t.Fatalf("%s span %d under %s span %d (%+v in %+v)",
				layerNames[sp.Layer], i, layerNames[p.Layer], sp.Parent, sp, p)
		}
	}
	if got := uint64(rec.calls[layerKernel]); got != d.syscalls {
		t.Errorf("%d kernel spans, process made %d syscalls", got, d.syscalls)
	}
	if got := uint64(rec.calls[layerMonitor]); got != d.traps || got != 15*units {
		t.Errorf("%d monitor spans, process took %d traps", got, d.traps)
	}
	if rec.calls[layerShadow] == 0 || rec.calls[layerUnit] != units {
		t.Errorf("calls %v", rec.calls)
	}
}

// TestSpansWrittenOnceAtEnd checks that the recorder keeps the spans of
// the first keepUnits units in memory, writes them with global parent
// ids in one call, and refuses a second write.
func TestSpansWrittenOnceAtEnd(t *testing.T) {
	rec := newRecorder(2)
	for u := 0; u < 3; u++ {
		id := rec.beginUnit(layerUnit, u)
		k := rec.begin(layerKernel)
		m := rec.begin(layerMonitor)
		rec.end(m)
		rec.end(k)
		rec.endUnit(id)
	}
	var buf bytes.Buffer
	if err := rec.write(&buf); err != nil {
		t.Fatal(err)
	}
	type line struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Unit   int    `json:"unit"`
		Parent int    `json:"parent"`
	}
	var lines []line
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 6 {
		t.Fatalf("wrote %d spans, want the 6 of the first 2 units", len(lines))
	}
	for i, l := range lines {
		if l.ID != i || (l.Parent >= 0 && (l.Parent >= i || lines[l.Parent].Unit != l.Unit)) {
			t.Fatalf("span %+v has a bad id or parent", l)
		}
	}
	if lines[5].Name != "monitor" || lines[5].Parent != 4 || lines[4].Parent != 3 {
		t.Fatalf("second unit's tree is not linked by global id: %+v", lines[3:])
	}
	if rec.calls[layerMonitor] != 3 {
		t.Fatalf("folded %d monitor spans, want all 3 units' spans", rec.calls[layerMonitor])
	}
	if err := rec.write(&buf); err == nil {
		t.Fatal("second write succeeded")
	}
}
