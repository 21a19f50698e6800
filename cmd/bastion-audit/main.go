// bastion-audit is the whole-program policy auditor: it compiles one (or
// all) of the bundled guest applications, cross-validates the generated
// context metadata against the instrumented program, and prints a
// deterministic findings report plus the per-syscall residual attack
// surface before and after points-to refinement.
//
// Usage:
//
//	bastion-audit [-app nginx|sqlite|vsftpd|all] [-format text|json] [-allowlist file] [-strict] [-residual=false]
//
// With -format json each app's report is emitted as one machine-readable
// JSON document (stable key order, byte-identical across runs); -residual
// is folded into the document and the findings list is always included.
//
// Exit status: 0 when the audit is clean, 1 when any error-severity
// finding is present (or, with -strict, when any finding survives the
// allowlist), 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"bastion/internal/audit"
	"bastion/internal/core"
	"bastion/internal/workload"
)

func main() {
	app := flag.String("app", "all", "guest application: nginx | sqlite | vsftpd | all")
	allowFile := flag.String("allowlist", "", "allowlist file: one \"CODE location\" key per line, '#' comments")
	strict := flag.Bool("strict", false, "fail on any finding not covered by the allowlist (warnings included)")
	residual := flag.Bool("residual", true, "print the per-syscall residual-surface table")
	format := flag.String("format", "text", "report format: text | json")
	flag.Parse()

	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "bastion-audit: unknown format %q\n", *format)
		os.Exit(2)
	}

	apps := workload.Apps
	if *app != "all" {
		apps = []string{*app}
	}
	targets := make([]workload.Target, len(apps))
	for i, name := range apps {
		t, err := workload.NewTarget(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bastion-audit: unknown app %q\n", name)
			os.Exit(2)
		}
		targets[i] = t
	}

	allow := map[string]bool{}
	if *allowFile != "" {
		data, err := os.ReadFile(*allowFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bastion-audit: %v\n", err)
			os.Exit(2)
		}
		allow = audit.ParseAllowlist(data)
	}

	failed := false
	for _, target := range targets {
		name := target.Name()
		art, err := core.Compile(target.Build(), core.CompileOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bastion-audit: compile %s: %v\n", name, err)
			os.Exit(1)
		}
		rep := audit.Run(name, art.Prog, art.Meta)
		if *format == "json" {
			data, err := rep.RenderJSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bastion-audit: render %s: %v\n", name, err)
				os.Exit(1)
			}
			os.Stdout.Write(data)
		} else {
			fmt.Fprintf(os.Stdout, "audit %s: %d finding(s), %d error(s)\n", rep.App, len(rep.Findings), rep.Errors())
			for _, f := range rep.Findings {
				fmt.Printf("  %s\n", f)
			}
			if *residual {
				fmt.Print(rep.RenderResidual())
			}
		}
		if *strict {
			if left := rep.Unallowed(allow); len(left) > 0 {
				fmt.Fprintf(os.Stderr, "bastion-audit: %s: %d finding(s) not in allowlist:\n", name, len(left))
				for _, f := range left {
					fmt.Fprintf(os.Stderr, "  %s\n", f.Key())
				}
				failed = true
			}
		} else if rep.Errors() != 0 {
			fmt.Fprintf(os.Stderr, "bastion-audit: %s: %d error(s)\n", name, rep.Errors())
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
