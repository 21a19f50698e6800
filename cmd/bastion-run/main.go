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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bastion/internal/bench"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/obs"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == errUsage:
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "bastion-run: %v\n", err)
		os.Exit(1)
	}
}

// errUsage reports a malformed command line, already printed with the
// usage text.
var errUsage = errors.New("bad usage")

// run parses args, runs the measurement and prints its report to w.
func run(args []string, w io.Writer) error {
	fl := flag.NewFlagSet("bastion-run", flag.ContinueOnError)
	app := fl.String("app", "nginx", "application: nginx | sqlite | vsftpd")
	units := fl.Int("units", 100, "work units to drive")
	ctxFlag := fl.String("contexts", "ct,cf,ai,sf", "enabled contexts (all, or a comma list of ct,cf,ai,sf)")
	unprotected := fl.Bool("unprotected", false, "run without BASTION")
	extendFS := fl.Bool("extend-fs", false, "also protect file-system syscalls (§11.2)")
	offload := fl.Bool("offload", false, "answer in-filter-decidable verdicts inside the seccomp program (needs -extend-fs and a context set without cf)")
	noFast := fl.Bool("no-accept-fastpath", false, "disable the accept/accept4 fast path")
	showMaps := fl.Bool("maps", false, "print the final process memory map")
	traceOut := fl.String("trace", "", "write the per-trap decision trace to this file")
	traceFormat := fl.String("trace-format", "jsonl", "trace format: jsonl | chrome")
	metricsOut := fl.String("metrics", "", "write the metrics registry (text render) to this file")
	flightN := fl.Int("flight", 0, "flight-recorder depth (last N traps attached to violations; 0 = off)")
	if err := fl.Parse(args); err == flag.ErrHelp {
		return nil
	} else if err != nil {
		return errUsage
	}

	def := bench.MitVanilla
	if !*unprotected {
		ctx, err := monitor.ParseContexts(*ctxFlag)
		if err != nil {
			fmt.Fprintf(fl.Output(), "invalid value %q for flag -contexts: %v\n", *ctxFlag, err)
			fl.Usage()
			return errUsage
		}
		def = rungFor(ctx)
	}
	def.Monitor.ExtendFS, def.Monitor.Offload = *extendFS, *offload
	def.Monitor.AcceptFastPath = !*noFast
	if def.Name == "" { // no rung enforces this mask: name the policy
		def.Name = "CET, " + def.Monitor.Policy.String()
	}

	if *flightN < 0 {
		return fmt.Errorf("-flight must be non-negative, got %d", *flightN)
	}
	var sink *obs.BufferSink
	if *traceOut != "" {
		if *traceFormat != "jsonl" && *traceFormat != "chrome" {
			return fmt.Errorf("-trace-format must be jsonl or chrome, got %q", *traceFormat)
		}
		sink = &obs.BufferSink{}
		def.Monitor.Sink = sink
	}
	def.Monitor.FlightN = *flightN

	res, err := bench.Run(bench.RunSpec{App: *app, Units: *units, Mitigation: def})
	if err != nil {
		return err
	}
	if sink != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
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
			return fmt.Errorf("writing trace: %v", err)
		}
		fmt.Fprintf(w, "bastion-run: %d trace events written to %s (%s)\n", len(sink.Events), *traceOut, *traceFormat)
	}
	if *metricsOut != "" {
		if res.Protected.Monitor == nil {
			return fmt.Errorf("-metrics requires a monitored run (drop -unprotected)")
		}
		if err := os.WriteFile(*metricsOut, []byte(res.Protected.Monitor.Metrics.Render()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "bastion-run: metrics written to %s\n", *metricsOut)
	}

	wl := res.Workload
	fmt.Fprintf(w, "bastion-run: %s under %s\n", *app, def)
	fmt.Fprintf(w, " units:           %d %ss, %d bytes\n", wl.Units, res.Target.UnitLabel(), wl.Bytes)
	fmt.Fprintf(w, " init phase:      %d cycles (%.2f ms)\n", wl.InitCycles, float64(wl.InitCycles)/bench.SimHz*1000)
	fmt.Fprintf(w, " steady state:    %d cycles (%.0f per unit)\n", wl.TotalCycles, wl.PerUnitTotal())
	fmt.Fprintf(w, " monitor share:   %d cycles (%.0f per unit), %d hooks\n",
		wl.MonitorCycles, wl.PerUnitMonitor(), wl.Traps)
	fmt.Fprintf(w, " throughput:      %.1f %ss/sec (modeled, %d workers)\n",
		bench.Throughput(res), res.Target.UnitLabel(), res.Target.Workers())

	if res.Protected.Monitor != nil {
		mon := res.Protected.Monitor
		fmt.Fprintf(w, " monitor init:    %.2f ms\n", float64(mon.InitCycles)/bench.SimHz*1000)
		fmt.Fprint(w, mon.Report())
		if mon.Recorder != nil && len(mon.Violations) > 0 {
			fmt.Fprintf(w, " flight recorder (last %d traps):\n%s", mon.Recorder.Len(), mon.Recorder.DumpJSONL())
		}
	}
	m := res.Protected.Machine
	if m.DepthN > 0 {
		fmt.Fprintf(w, " syscall depth:   avg %.1f, min %d, max %d\n", m.AvgSyscallDepth(), m.MinDepth, m.MaxDepth)
	}
	if *showMaps {
		fmt.Fprintf(w, " memory map:\n%s", res.Protected.Proc.Maps())
	}
	return nil
}

// rungFor returns the Figure 3 rung that enforces ctx or, for a mask no
// rung enforces, full protection narrowed to ctx and left unnamed, so the
// header names the policy that actually runs.
func rungFor(ctx monitor.Context) core.Defense {
	for _, r := range bench.Mitigations {
		if r.Monitored() && r.Monitor.Contexts == ctx {
			return r
		}
	}
	d := bench.MitFull
	d.Name = ""
	d.Monitor.Contexts = ctx
	return d
}
