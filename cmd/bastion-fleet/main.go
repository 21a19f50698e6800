// bastion-fleet runs the multi-tenant fleet supervisor: N protected guest
// instances executing their workloads concurrently from one shared set of
// compiled artifacts, with per-tenant restart policy and an aggregated
// fleet report.
//
// Usage:
//
//	bastion-fleet [-tenants N] [-app nginx,sqlite,vsftpd] [-units N]
//	              [-mode full|fetch-only|hook-only] [-contexts ct,cf,ai,sf]
//	              [-restarts N] [-seed N]
//	              [-det] [-workers N] [-share=false] [-extendfs]
//	              [-offload] [-tree] [-malicious IDX] [-attack ID] [-md]
//	              [-shards N] [-reload-at N] [-reload-to SPEC]
//	              [-trace out.jsonl] [-trace-format jsonl|chrome]
//	              [-metrics out.txt] [-metrics-format text|openmetrics]
//	              [-flight N] [-slo p99=N,viol=R,rejects=R,warn=F]
//
// Example: inject the vsftpd CVE into tenant 2 of a six-tenant fleet and
// watch it get killed and restarted while its siblings run undisturbed:
//
//	bastion-fleet -tenants 6 -units 20 -malicious 2 -attack cve-2012-0809
//
// Example: run 256 tenants under an 8-shard control plane (consistent-hash
// placement, per-shard admission with backpressure) and hot-reload every
// tenant onto a tree-filter policy after its 10th unit, with zero guest
// downtime:
//
//	bastion-fleet -tenants 256 -units 20 -shards 8 -reload-at 10 -reload-to tree -md
//
// Example: score every shard against service budgets (p99 trap latency
// 16k cycles, one violation per thousand units, half an admission reject
// per tenant) and export the merged registry for a Prometheus scrape:
//
//	bastion-fleet -tenants 64 -shards 4 -slo p99=16000,viol=1,rejects=0.5 \
//	              -metrics fleet.om -metrics-format openmetrics -md
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bastion/internal/core/monitor"
	"bastion/internal/fleet"
	"bastion/internal/obs"
)

// parseSLO turns a comma list of budget tokens into an SLOConfig. All
// budgets start disabled; each token enables one: p99=N (trap-latency
// p99 in cycles), viol=R (violations per 1000 units), rejects=R
// (admission rejects per tenant), warn=F (PASS→WARN utilization,
// default 0.8), factor=F / warmup=N (EWMA anomaly tuning).
func parseSLO(s string) (*fleet.SLOConfig, error) {
	cfg := &fleet.SLOConfig{ViolationsPerKUnit: -1, RejectsPerTenant: -1}
	for _, tok := range strings.Split(strings.ReplaceAll(s, " ", ""), ",") {
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("token %q is not key=value", tok)
		}
		switch key {
		case "p99":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("p99 wants a positive cycle count, got %q", val)
			}
			cfg.TrapP99Cycles = n
		case "viol":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 {
				return nil, fmt.Errorf("viol wants a non-negative rate, got %q", val)
			}
			cfg.ViolationsPerKUnit = f
		case "rejects":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 {
				return nil, fmt.Errorf("rejects wants a non-negative rate, got %q", val)
			}
			cfg.RejectsPerTenant = f
		case "warn":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("warn wants a fraction, got %q", val)
			}
			cfg.WarnFraction = f
		case "factor":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("factor wants a number, got %q", val)
			}
			cfg.AnomalyFactor = f
		case "warmup":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("warmup wants an integer, got %q", val)
			}
			cfg.AnomalyWarmup = n
		default:
			return nil, fmt.Errorf("unknown budget %q (want p99, viol, rejects, warn, factor, warmup)", key)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

func parseMode(s string) (monitor.Mode, error) {
	switch s {
	case "full":
		return monitor.ModeFull, nil
	case "fetch-only":
		return monitor.ModeFetchOnly, nil
	case "hook-only":
		return monitor.ModeHookOnly, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want full, fetch-only, or hook-only)", s)
}

// parseReloadSpec turns a comma list of policy tokens into the hot-reload
// generation's PolicySpec: tree, extendfs, offload toggle the
// corresponding knobs on (everything unlisted is off), and any of
// ct/cf/ai/sf narrows the context mask (omit them all to keep every
// context enforced).
func parseReloadSpec(s string) (*fleet.PolicySpec, error) {
	spec := &fleet.PolicySpec{}
	var ctxToks []string
	for _, tok := range strings.Split(strings.ToLower(strings.ReplaceAll(s, " ", "")), ",") {
		switch tok {
		case "tree":
			spec.TreeFilter = true
		case "extendfs":
			spec.ExtendFS = true
		case "offload":
			spec.Offload = true
		case "":
		default:
			ctxToks = append(ctxToks, tok)
		}
	}
	if len(ctxToks) > 0 {
		ctx, err := monitor.ParseContexts(strings.Join(ctxToks, ","))
		if err != nil {
			return nil, fmt.Errorf("want tree, extendfs, offload or contexts: %w", err)
		}
		spec.Contexts, spec.UseContexts = ctx, true
	}
	return spec, nil
}

func splitApps(s string) []string {
	var apps []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			apps = append(apps, a)
		}
	}
	return apps
}

func main() {
	tenants := flag.Int("tenants", 4, "number of protected guest tenants")
	appList := flag.String("app", "nginx,sqlite,vsftpd", "comma-separated workloads, assigned round-robin by tenant index")
	units := flag.Int("units", 20, "work units per tenant")
	modeStr := flag.String("mode", "full", "monitor mode: full | fetch-only | hook-only")
	ctxFlag := flag.String("contexts", "all", "enabled contexts: all, or a comma list of ct,cf,ai,sf")
	restarts := flag.Int("restarts", 3, "max restarts per tenant before it is declared dead")
	seed := flag.Int64("seed", 0, "tenant-interleaving schedule seed")
	det := flag.Bool("det", false, "deterministic mode: run tenants serially in schedule order")
	workers := flag.Int("workers", 0, "goroutine pool size for concurrent dispatch (0 = NumCPU)")
	share := flag.Bool("share", true, "compile artifacts once per app and share across tenants")
	extendFS := flag.Bool("extendfs", false, "extend protection to file-system syscalls (Table 7)")
	offload := flag.Bool("offload", false, "answer in-filter-decidable verdicts inside the seccomp program (requires -extendfs, full mode, no control-flow context)")
	tree := flag.Bool("tree", false, "binary-search seccomp filter compilation")
	malicious := flag.Int("malicious", -1, "tenant index to inject an attack into (-1 = none)")
	attackID := flag.String("attack", "", "attack scenario ID for -malicious (must match the tenant's app)")
	md := flag.Bool("md", false, "print the full markdown report instead of the summary line")
	shards := flag.Int("shards", 0, "shard-supervisor count for the control plane (0 = one shard, admission off)")
	reloadAt := flag.Int("reload-at", 0, "hot-reload every tenant's policy after this many units (0 = off; needs -reload-to)")
	reloadTo := flag.String("reload-to", "", "policy to hot-reload to: comma list of tree,extendfs,offload,ct,cf,ai,sf")
	traceOut := flag.String("trace", "", "write the fleet-wide decision trace (tenant-stamped) to this file")
	traceFormat := flag.String("trace-format", "jsonl", "trace format: jsonl | chrome")
	metricsOut := flag.String("metrics", "", "write the merged metrics registry to this file")
	metricsFormat := flag.String("metrics-format", "text", "merged-metrics format: text | openmetrics")
	flightN := flag.Int("flight", 0, "per-tenant flight-recorder depth (0 = off)")
	sloFlag := flag.String("slo", "", "service budgets as a comma list of p99=N,viol=R,rejects=R,warn=F (adds the SLO report section; implies tracing)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bastion-fleet: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if *tenants < 1 {
		fail("-tenants must be at least 1, got %d", *tenants)
	}
	if *units < 1 {
		fail("-units must be at least 1, got %d", *units)
	}
	if *restarts < 0 {
		fail("-restarts must be non-negative, got %d", *restarts)
	}
	if *workers < 0 {
		fail("-workers must be non-negative, got %d", *workers)
	}
	mode, err := parseMode(*modeStr)
	if err != nil {
		fail("%v", err)
	}
	ctxMask, err := monitor.ParseContexts(*ctxFlag)
	if err != nil {
		fail("-contexts: %v", err)
	}
	// AllContexts is the fleet default; an explicit mask (including the
	// pre-SF ct,cf,ai shape or the verdict-offload ct,ai shape) overrides.
	useCtx := ctxMask != monitor.AllContexts
	apps := splitApps(*appList)
	if len(apps) == 0 {
		fail("-app must name at least one workload")
	}
	if (*malicious >= 0) != (*attackID != "") {
		fail("-malicious and -attack must be used together")
	}
	if *flightN < 0 {
		fail("-flight must be non-negative, got %d", *flightN)
	}
	if *traceFormat != "jsonl" && *traceFormat != "chrome" {
		fail("-trace-format must be jsonl or chrome, got %q", *traceFormat)
	}
	if *metricsFormat != "text" && *metricsFormat != "openmetrics" {
		fail("-metrics-format must be text or openmetrics, got %q", *metricsFormat)
	}
	var sloCfg *fleet.SLOConfig
	if *sloFlag != "" {
		if sloCfg, err = parseSLO(*sloFlag); err != nil {
			fail("-slo: %v", err)
		}
	}
	if *shards < 0 {
		fail("-shards must be non-negative, got %d", *shards)
	}
	if (*reloadAt > 0) != (*reloadTo != "") {
		fail("-reload-at and -reload-to must be used together")
	}
	var reloadSpec *fleet.PolicySpec
	if *reloadTo != "" {
		if reloadSpec, err = parseReloadSpec(*reloadTo); err != nil {
			fail("-reload-to: %v", err)
		}
	}

	cfg := fleet.Config{
		Tenants:        *tenants,
		Apps:           apps,
		Units:          *units,
		Policy:         monitor.Policy{Contexts: ctxMask, ExtendFS: *extendFS, TreeFilter: *tree, Offload: *offload},
		UseContexts:    useCtx,
		Mode:           mode,
		ShareArtifacts: *share,
		MaxRestarts:    *restarts,
		Seed:           *seed,
		Deterministic:  *det,
		Workers:        *workers,
		Shards:         *shards,
		ReloadAt:       *reloadAt,
		ReloadSpec:     reloadSpec,
		Trace:          *traceOut != "" || *metricsOut != "",
		FlightN:        *flightN,
		SLO:            sloCfg,
	}
	if *malicious >= 0 {
		cfg.Malicious = map[int]string{*malicious: *attackID}
	}

	rep, err := fleet.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bastion-fleet: %v\n", err)
		os.Exit(1)
	}
	if *md {
		fmt.Print(rep.Markdown())
	} else {
		fmt.Println(rep.String())
		for i := range rep.Results {
			tr := &rep.Results[i]
			if tr.Attack != nil {
				verdict := "blocked"
				if tr.Attack.Completed {
					verdict = "COMPLETED — tenant quarantined"
				} else if tr.Attack.Killed {
					verdict = "blocked, killed by " + tr.Attack.KilledBy
				}
				fmt.Printf("tenant %d (%s): attack %s %s\n", tr.Index, tr.App, tr.Attack.ID, verdict)
			}
			if tr.Dead {
				fmt.Printf("tenant %d (%s): dead after %d restarts (%d units done)\n",
					tr.Index, tr.App, tr.Restarts, tr.Units)
			}
			if tr.Flight != "" {
				fmt.Printf("tenant %d (%s): flight recorder\n%s", tr.Index, tr.App, tr.Flight)
			}
		}
	}

	runFail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bastion-fleet: "+format+"\n", args...)
		os.Exit(1)
	}
	if *traceOut != "" {
		// Tenant order, each tenant's events in sequence: stable across
		// runs, and the tenant stamp keeps the streams separable (Chrome
		// renders them as one process track per tenant).
		var events []obs.TrapEvent
		for i := range rep.Results {
			events = append(events, rep.Results[i].Events...)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			runFail("%v", err)
		}
		if *traceFormat == "chrome" {
			err = obs.WriteChrome(f, events)
		} else {
			err = obs.WriteJSONL(f, events)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			runFail("writing trace: %v", err)
		}
		fmt.Printf("%d trace events written to %s (%s)\n", len(events), *traceOut, *traceFormat)
	}
	if *metricsOut != "" {
		render := rep.MergedMetrics().Render
		if *metricsFormat == "openmetrics" {
			render = rep.MergedMetrics().RenderOpenMetrics
		}
		if err := os.WriteFile(*metricsOut, []byte(render()), 0o644); err != nil {
			runFail("%v", err)
		}
		fmt.Printf("merged metrics written to %s (%s)\n", *metricsOut, *metricsFormat)
	}
}
