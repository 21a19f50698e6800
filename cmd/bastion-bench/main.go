// bastion-bench regenerates the paper's evaluation artifacts: Figure 3 and
// Tables 3-7, plus the §9.2 extras (monitor init latency, call-depth
// statistics, the accept fast-path ablation, and the linear-vs-tree
// seccomp filter ablation).
//
// Usage:
//
//	bastion-bench [-exp all|fig3|table3|table4|table5|table6|table7|filter|sf|offload|refine|bside|obs|fleet|shard|extras] [-units N]
//	bastion-bench -report out.md [-parallel] [-workers N]
//	bastion-bench -format json -out BENCH_<label>.json [-label L] [-parallel]
//	bastion-bench -baseline old.json [-tolerance 5] [-format json -out new.json]
//	bastion-bench -baseline old.json -compare new.json [-tolerance 5]
//
// The shard experiment sweeps the sharded control plane across 256/1k/4k
// tenants × shard counts; it defaults to bench.ShardScalingUnits per
// tenant (control-plane cost dominates) unless -units is set explicitly.
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

// experiments is the authoritative -exp value list ("all" plus each
// single experiment). validate rejects anything else by name so a typo
// errors instead of silently running nothing.
var experiments = []string{
	"all", "fig3", "table3", "table4", "table5", "table6", "table7",
	"filter", "sf", "offload", "refine", "bside", "obs",
	"fleet", "shard", "extras",
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
	flag.StringVar(&o.exp, "exp", "all", "experiment: "+strings.Join(experiments, " | "))
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

	// Artifact emission and/or gating: collect the full report once.
	if o.format == "json" || o.baseline != "" {
		rep, err := bench.CollectReportParallel(o.units, o.workerCount())
		if err != nil {
			fatal("report: %v", err)
		}
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
		return
	}

	if o.report != "" {
		n := o.workerCount()
		rep, err := bench.CollectReportParallel(o.units, n)
		if err != nil {
			fatal("report: %v", err)
		}
		if err := os.WriteFile(o.report, []byte(rep.Markdown()), 0o644); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("report written to %s (%d worker(s))\n", o.report, n)
		fmt.Print(rep.TimingSummary())
		return
	}

	run := func(name string, f func() error) {
		if o.exp != "all" && o.exp != name {
			return
		}
		if err := f(); err != nil {
			fatal("%s: %v", name, err)
		}
	}

	run("fig3", func() error {
		rows, err := bench.Figure3(o.units)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFigure3(rows))
		return nil
	})
	run("table3", func() error {
		rows, err := bench.Table3(o.units)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTable3(rows))
		return nil
	})
	run("table4", func() error {
		res, err := bench.Table4(o.units)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTable4(res, o.units))
		return nil
	})
	run("table5", func() error {
		rows, err := bench.Table5()
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTable5(rows))
		return nil
	})
	run("table6", func() error {
		rows, err := bench.Table6()
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTable6(rows))
		return nil
	})
	run("table7", func() error {
		rows, err := bench.Table7(o.units)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTable7(rows))
		return nil
	})
	run("filter", func() error {
		var rows []*bench.FilterAblationResult
		for _, app := range bench.Apps {
			r, err := bench.FilterAblation(app, o.units)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		fmt.Println(bench.RenderFilterAblation(rows))
		return nil
	})
	run("sf", func() error {
		var rows []*bench.SFAblationResult
		for _, app := range bench.Apps {
			r, err := bench.SFAblation(app, o.units)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		fmt.Println(bench.RenderSFAblation(rows))
		return nil
	})
	run("offload", func() error {
		var rows []*bench.OffloadAblationResult
		for _, app := range bench.Apps {
			r, err := bench.OffloadAblation(app, o.units)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		fmt.Println(bench.RenderOffloadAblation(rows))
		return nil
	})
	run("refine", func() error {
		var rows []*bench.RefineAblationResult
		for _, app := range bench.Apps {
			r, err := bench.RefineAblation(app, o.units)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		fmt.Println(bench.RenderRefineAblation(rows))
		return nil
	})
	run("bside", func() error {
		var rows []*bench.BsideAblationResult
		for _, app := range bench.Apps {
			r, err := bench.BsideAblation(app, o.units)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		fmt.Println(bench.RenderBsideAblation(rows))
		return nil
	})
	run("obs", func() error {
		var rows []*bench.ObsAblationResult
		for _, app := range bench.Apps {
			r, err := bench.ObsAblation(app, o.units)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		fmt.Println(bench.RenderObsAblation(rows))
		return nil
	})
	run("fleet", func() error {
		res, err := bench.FleetScaling(o.units)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFleetScaling(res))
		return nil
	})
	run("shard", func() error {
		u := bench.ShardScalingUnits
		if o.unitsSet {
			u = o.units
		}
		res, err := bench.DefaultShardScaling(u)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderShardScaling(res))
		return nil
	})
	run("extras", func() error {
		for _, app := range bench.Apps {
			st, err := bench.InitAndDepth(app, o.units)
			if err != nil {
				return err
			}
			fmt.Printf("%s: monitor init %.2f ms; syscall depth avg %.1f min %d max %d\n",
				st.App, st.InitMillis, st.AvgDepth, st.MinDepth, st.MaxDepth)
		}
		res, err := bench.AblationAcceptFastPath("nginx", o.units)
		if err != nil {
			return err
		}
		fmt.Printf("accept4 fast-path ablation (nginx): %.2f%% with fast path, %.2f%% with full walk\n",
			res.FastPathOverhead, res.FullWalkOverhead)
		return nil
	})
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
