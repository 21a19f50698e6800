// bastion-run launches one of the bundled applications under a chosen
// protection configuration and drives its paper workload, printing runtime
// statistics — the interactive analog of the paper's §9 runs.
//
// Usage:
//
//	bastion-run -app nginx -units 200 [-contexts ct,cf,ai,sf] [-unprotected]
//	            [-extend-fs] [-offload] [-no-accept-fastpath]
//	            [-trace out.jsonl] [-trace-format jsonl|chrome]
//	            [-metrics out.txt] [-flight N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bastion/internal/bench"
	"bastion/internal/core/monitor"
	"bastion/internal/obs"
)

func main() {
	app := flag.String("app", "nginx", "application: nginx | sqlite | vsftpd")
	units := flag.Int("units", 100, "work units to drive")
	ctxFlag := flag.String("contexts", "ct,cf,ai,sf", "enabled contexts (comma list of ct,cf,ai,sf)")
	unprotected := flag.Bool("unprotected", false, "run without BASTION")
	extendFS := flag.Bool("extend-fs", false, "also protect file-system syscalls (§11.2)")
	offload := flag.Bool("offload", false, "answer in-filter-decidable verdicts inside the seccomp program (needs -extend-fs and a context set without cf)")
	noFast := flag.Bool("no-accept-fastpath", false, "disable the accept/accept4 fast path")
	showMaps := flag.Bool("maps", false, "print the final process memory map")
	traceOut := flag.String("trace", "", "write the per-trap decision trace to this file")
	traceFormat := flag.String("trace-format", "jsonl", "trace format: jsonl | chrome")
	metricsOut := flag.String("metrics", "", "write the metrics registry (text render) to this file")
	flightN := flag.Int("flight", 0, "flight-recorder depth (last N traps attached to violations; 0 = off)")
	flag.Parse()

	spec := bench.RunSpec{
		App:                   *app,
		Units:                 *units,
		ExtendFS:              *extendFS,
		Offload:               *offload,
		DisableAcceptFastPath: *noFast,
	}
	if *unprotected {
		spec.Mitigation = bench.MitVanilla
	} else {
		ctx, err := parseContexts(*ctxFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bastion-run: %v\n", err)
			os.Exit(2)
		}
		switch ctx {
		case monitor.CallType:
			spec.Mitigation = bench.MitCETCT
		case monitor.CallType | monitor.ControlFlow:
			spec.Mitigation = bench.MitCETCTCF
		case monitor.AllContexts:
			spec.Mitigation = bench.MitFull
		default:
			// Any other combination (ct,ai for the verdict-offload shape,
			// ct,cf,ai for pre-SF behavior, sf alone for the flow ablation)
			// runs full mode with an explicit context mask.
			spec.Mitigation = bench.MitFull
			spec.Contexts = ctx
		}
	}

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bastion-run: "+format+"\n", args...)
		os.Exit(1)
	}
	if *flightN < 0 {
		fail("-flight must be non-negative, got %d", *flightN)
	}
	var sink *obs.BufferSink
	if *traceOut != "" {
		if *traceFormat != "jsonl" && *traceFormat != "chrome" {
			fail("-trace-format must be jsonl or chrome, got %q", *traceFormat)
		}
		sink = &obs.BufferSink{}
		spec.Sink = sink
	}
	spec.FlightN = *flightN

	res, err := bench.Run(spec)
	if err != nil {
		fail("%v", err)
	}

	if sink != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail("%v", err)
		}
		if *traceFormat == "chrome" {
			err = obs.WriteChrome(f, sink.Events)
		} else {
			err = obs.WriteJSONL(f, sink.Events)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail("writing trace: %v", err)
		}
		fmt.Printf("bastion-run: %d trace events written to %s (%s)\n", len(sink.Events), *traceOut, *traceFormat)
	}
	if *metricsOut != "" {
		if res.Protected.Monitor == nil {
			fail("-metrics requires a monitored run (drop -unprotected)")
		}
		if err := os.WriteFile(*metricsOut, []byte(res.Protected.Monitor.Metrics.Render()), 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("bastion-run: metrics written to %s\n", *metricsOut)
	}

	wl := res.Workload
	fmt.Printf("bastion-run: %s under %s\n", *app, spec.Mitigation)
	fmt.Printf(" units:           %d %ss, %d bytes\n", wl.Units, res.Target.UnitLabel(), wl.Bytes)
	fmt.Printf(" init phase:      %d cycles (%.2f ms)\n", wl.InitCycles, float64(wl.InitCycles)/bench.SimHz*1000)
	fmt.Printf(" steady state:    %d cycles (%.0f per unit)\n", wl.TotalCycles, wl.PerUnitTotal())
	fmt.Printf(" monitor share:   %d cycles (%.0f per unit), %d hooks\n",
		wl.MonitorCycles, wl.PerUnitMonitor(), wl.Traps)
	fmt.Printf(" throughput:      %.1f %ss/sec (modeled, %d workers)\n",
		bench.Throughput(res), res.Target.UnitLabel(), res.Target.Workers())

	if res.Protected.Monitor != nil {
		mon := res.Protected.Monitor
		fmt.Printf(" monitor init:    %.2f ms\n", float64(mon.InitCycles)/bench.SimHz*1000)
		fmt.Print(mon.Report())
		if mon.Recorder != nil && len(mon.Violations) > 0 {
			fmt.Printf(" flight recorder (last %d traps):\n%s", mon.Recorder.Len(), mon.Recorder.DumpJSONL())
		}
	}
	m := res.Protected.Machine
	if m.DepthN > 0 {
		fmt.Printf(" syscall depth:   avg %.1f, min %d, max %d\n", m.AvgSyscallDepth(), m.MinDepth, m.MaxDepth)
	}
	if *showMaps {
		fmt.Printf(" memory map:\n%s", res.Protected.Proc.Maps())
	}
}

// parseContexts turns a comma list of ct/cf/ai/sf (or "all") into a
// context mask.
func parseContexts(s string) (monitor.Context, error) {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return monitor.AllContexts, nil
	}
	var ctx monitor.Context
	for _, tok := range strings.Split(strings.ToLower(strings.ReplaceAll(s, " ", "")), ",") {
		switch tok {
		case "ct":
			ctx |= monitor.CallType
		case "cf":
			ctx |= monitor.ControlFlow
		case "ai":
			ctx |= monitor.ArgIntegrity
		case "sf":
			ctx |= monitor.SyscallFlow
		case "":
		default:
			return 0, fmt.Errorf("contexts must be a comma list of ct,cf,ai,sf (or all), got %q", tok)
		}
	}
	if ctx == 0 {
		return 0, fmt.Errorf("contexts list %q enables nothing", s)
	}
	return ctx, nil
}
