// Command perfbench is the repository's end-to-end benchmark. It drives
// the BASTION simulator through one of three workloads, checks that every
// response and every cycle account is correct, and prints each metric by
// name with its unit, ending with one JSON result line.
//
//	perfbench --workload nginx-fs|sqlite-txn|fleet-offload --seed N --seconds S --trace 0|1
//
// An untraced run prints the end-to-end metrics; a traced run prints the
// per-layer metrics and writes the spans it recorded. It exits 1 when a
// correctness check fails and 2 on a usage error. See README.md for the
// workloads, metrics and bounds.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// setups is the least number of cold set-ups whose median is
	// setup_s; more run until setupBudget has passed.
	setups      int
	setupBudget time.Duration
	// keepUnits bounds the units whose spans a traced run writes out.
	keepUnits int
	outDir    string
	// ref runs the reference job between samples; host times are scaled
	// to nominal machine speed by it.
	ref *refClock
}

// maxSetups caps the cold set-ups of one run.
const maxSetups = 101

// workloadNames lists the workloads in presentation order.
var workloadNames = []string{"nginx-fs", "sqlite-txn", "fleet-offload"}

func main() {
	o := options{setups: 15, setupBudget: time.Second, keepUnits: 32}
	flag.StringVar(&o.workload, "workload", "", "workload: nginx-fs, sqlite-txn or fleet-offload")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	secs := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/spans", "directory for the traced run's spans")
	flag.Parse()
	if *secs <= 0 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o.seconds = time.Duration(*secs * float64(time.Second))
	o.trace = *traceFlag == 1

	ref, err := newRefClock()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o.ref = ref
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds.Seconds(), *traceFlag)
	r := newReport()
	if err := run(o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Printf("  %s\n", o.ref.note())
	ok, err := r.emit(os.Stdout, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run dispatches one workload.
func run(o options, r *report) error {
	if o.workload == "fleet-offload" {
		return runFleet(o, r)
	}
	s, ok := singleSpecs[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	return runSingle(s, o, r)
}
