// bastion-bench regenerates the paper's evaluation artifacts: Figure 3 and
// Tables 3-7, plus the ablations and §9.2 / §11.2 extras that
// bench.Experiments lists.
//
// Usage:
//
//	bastion-bench [-exp all|NAME|shard] [-units N] [-parallel] [-workers N]
//	bastion-bench -report out.md [-parallel] [-workers N]
//	bastion-bench -format json -out BENCH_<label>.json [-label L] [-parallel]
//	bastion-bench -baseline old.json [-tolerance 5] [-format json -out new.json]
//	bastion-bench -baseline old.json -compare new.json [-tolerance 5]
//
// -exp NAME prints one experiment's report section; -exp all (the
// default) prints the whole report. NAME is any bench.Experiments name, or
// shard: the sharded control plane sweep across 256/1k/4k tenants × shard
// counts, which stays out of the report and defaults to
// bench.ShardScalingUnits per tenant (control-plane cost dominates) unless
// -units is set explicitly.
//
// -format json renders the full report as a deterministic perf artifact
// (the repo's performance trajectory; see DESIGN.md). -baseline gates the
// current run — or, with -compare, a previously written artifact, without
// re-running the bench — against an older artifact metric-by-metric and
// exits 1 on regressions beyond -tolerance percent.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"bastion/internal/bench"
	"bastion/internal/obs/perf"
)

// experimentNames is the valid -exp value list: "all", every report
// experiment, and the out-of-report shard sweep. validate rejects anything
// else by name so a typo errors instead of silently running nothing.
func experimentNames() []string {
	names := []string{"all"}
	for _, e := range bench.Experiments {
		names = append(names, e.Name)
	}
	return append(names, "shard")
}

// options carries the parsed flag set; validate holds every
// flag-combination rule so it can be tested without exec-ing the binary.
type options struct {
	exp        string
	units      int
	unitsSet   bool
	report     string
	parallel   bool
	workers    int
	workersSet bool
	format     string
	out        string
	label      string
	baseline   string
	compare    string
	tolerance  float64
}

// validate returns the first flag-combination error, or nil.
func (o *options) validate() error {
	if o.units < 1 {
		return fmt.Errorf("-units must be at least 1, got %d", o.units)
	}
	if o.workersSet && o.workers < 1 {
		return fmt.Errorf("-workers must be at least 1 when set, got %d", o.workers)
	}
	experiments := experimentNames()
	known := false
	for _, name := range experiments {
		if o.exp == name {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown -exp %q; valid: %s", o.exp, strings.Join(experiments, "|"))
	}
	switch o.format {
	case "md", "json":
	default:
		return fmt.Errorf("unknown -format %q; valid: md|json", o.format)
	}
	if o.format == "json" && o.out == "" {
		return fmt.Errorf("-format json requires -out FILE")
	}
	if o.out != "" && o.format != "json" {
		return fmt.Errorf("-out requires -format json")
	}
	if o.format == "json" && o.report != "" {
		return fmt.Errorf("-format json and -report are mutually exclusive")
	}
	if o.tolerance < 0 {
		return fmt.Errorf("-tolerance must be non-negative, got %v", o.tolerance)
	}
	if o.compare != "" && o.baseline == "" {
		return fmt.Errorf("-compare requires -baseline")
	}
	if (o.format == "json" || o.baseline != "") && o.exp != "all" {
		// An artifact always covers the full report; a partial artifact
		// would gate-fail on every metric the skipped experiments own.
		return fmt.Errorf("-exp %s cannot be combined with -format json or -baseline (artifacts cover the full report)", o.exp)
	}
	return nil
}

// workerCount resolves the report worker-pool size from the flags.
func (o *options) workerCount() int {
	if !o.parallel {
		return 1
	}
	if o.workers > 0 {
		return o.workers
	}
	return runtime.NumCPU()
}

func main() {
	var o options
	flag.StringVar(&o.exp, "exp", "all", "experiment: "+strings.Join(experimentNames(), " | "))
	flag.IntVar(&o.units, "units", bench.DefaultUnits, "work units per measurement")
	flag.StringVar(&o.report, "report", "", "write a complete markdown report to this file")
	flag.BoolVar(&o.parallel, "parallel", false, "fan report experiments out across CPU cores (same output, less wall clock)")
	flag.IntVar(&o.workers, "workers", 0, "worker pool size for -parallel (0 = NumCPU)")
	flag.StringVar(&o.format, "format", "md", "output format: md | json (json renders the full report as a perf artifact)")
	flag.StringVar(&o.out, "out", "", "artifact output file for -format json")
	flag.StringVar(&o.label, "label", "bench", "artifact label (a git ref, \"ci\", a date)")
	flag.StringVar(&o.baseline, "baseline", "", "gate against this perf artifact; exit 1 on regressions beyond -tolerance")
	flag.StringVar(&o.compare, "compare", "", "with -baseline: diff this artifact instead of running the bench")
	flag.Float64Var(&o.tolerance, "tolerance", 5, "allowed relative worsening in percent for gated metrics")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "units":
			o.unitsSet = true
		case "workers":
			o.workersSet = true
		}
	})

	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "bastion-bench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bastion-bench: "+format+"\n", args...)
		os.Exit(1)
	}

	// Offline diff: two existing artifacts, no bench run.
	if o.compare != "" {
		res, err := diffArtifacts(o.baseline, o.compare, o.tolerance)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Print(res.Render())
		if !res.OK() {
			os.Exit(1)
		}
		return
	}

	if o.exp == "shard" && o.report == "" {
		u := bench.ShardScalingUnits
		if o.unitsSet {
			u = o.units
		}
		t, err := bench.ShardScaling(u)
		if err != nil {
			fatal("shard: %v", err)
		}
		fmt.Print(t.Markdown())
		return
	}
	exps := bench.Experiments
	if o.exp != "all" && o.report == "" {
		e, _ := bench.Lookup(o.exp)
		exps = []bench.Experiment{e}
	}
	rep, err := bench.CollectReport(exps, o.units, o.workerCount())
	if err != nil {
		fatal("%v", err)
	}

	switch {
	case o.format == "json" || o.baseline != "":
		artifact := rep.PerfArtifact(o.label)
		if o.out != "" {
			if err := os.WriteFile(o.out, []byte(artifact.JSON()), 0o644); err != nil {
				fatal("%v", err)
			}
			fmt.Fprintf(os.Stderr, "artifact written to %s (%d metrics, %d worker(s))\n",
				o.out, len(artifact.Metrics), o.workerCount())
		}
		if o.baseline != "" {
			base, err := loadArtifact(o.baseline)
			if err != nil {
				fatal("%v", err)
			}
			res, err := perf.Compare(base, artifact, o.tolerance)
			if err != nil {
				fatal("%v", err)
			}
			fmt.Print(res.Render())
			if !res.OK() {
				os.Exit(1)
			}
		}
	case o.report != "":
		if err := os.WriteFile(o.report, []byte(rep.Markdown()), 0o644); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("report written to %s (%d worker(s))\n", o.report, o.workerCount())
		fmt.Print(rep.TimingSummary())
	case o.exp == "all":
		fmt.Print(rep.Markdown())
	default:
		fmt.Print(rep.Tables[0].Markdown())
	}
}

// loadArtifact reads and parses one perf artifact file.
func loadArtifact(path string) (*perf.Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := perf.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// diffArtifacts loads two artifacts and compares them.
func diffArtifacts(basePath, curPath string, tolerance float64) (*perf.Result, error) {
	base, err := loadArtifact(basePath)
	if err != nil {
		return nil, err
	}
	cur, err := loadArtifact(curPath)
	if err != nil {
		return nil, err
	}
	return perf.Compare(base, cur, tolerance)
}
