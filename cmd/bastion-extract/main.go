// bastion-extract is the B-Side front end: it links one (or all) of the
// bundled guest applications WITHOUT the compiler pass, recovers a policy
// artifact from the bare binary with the static extractor
// (internal/core/binscan), and optionally writes the artifact and the
// precision/recall audit against the compiler-traced ground truth.
//
// Usage:
//
//	bastion-extract [-app nginx|sqlite|vsftpd|all] [-meta out.json] [-facts] [-report out.txt] [-strict]
//
// -meta requires a single -app. The report compiles the same program with
// the compiler pass and diffs the two artifacts per context; with -strict
// the exit status is 1 when any error-severity finding is present (a
// traced CT/CF/SF fact the extraction failed to recover).
//
// Exit status: 0 on success, 1 on extraction/compile errors or -strict
// findings, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bastion/internal/audit"
	"bastion/internal/core"
	"bastion/internal/core/binscan"
	"bastion/internal/workload"
)

func main() {
	app := flag.String("app", "all", "guest application: nginx | sqlite | vsftpd | all")
	metaOut := flag.String("meta", "", "write the extracted metadata JSON to this file (single app only)")
	facts := flag.Bool("facts", false, "print the per-fact extraction provenance log")
	reportOut := flag.String("report", "", "write the precision/recall report to this file ('-' for stdout)")
	strict := flag.Bool("strict", false, "exit 1 when the report contains any error-severity finding")
	flag.Parse()

	apps := workload.Apps
	if *app != "all" {
		apps = []string{*app}
	}
	targets := make([]workload.Target, len(apps))
	for i, name := range apps {
		t, err := workload.NewTarget(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bastion-extract: unknown app %q\n", name)
			os.Exit(2)
		}
		targets[i] = t
	}
	if *metaOut != "" && len(apps) != 1 {
		fmt.Fprintln(os.Stderr, "bastion-extract: -meta requires a single -app")
		os.Exit(2)
	}

	var report strings.Builder
	failed := false
	for _, target := range targets {
		name := target.Name()
		res, err := binscan.Extract(target.Build())
		if err != nil {
			fmt.Fprintf(os.Stderr, "bastion-extract: %s: %v\n", name, err)
			os.Exit(1)
		}
		st := res.Stats
		fmt.Printf("bastion-extract: %s: %d funcs (%d wrappers), %d callsites, %d consts, %d top, flow %d/%d\n",
			name, st.Funcs, st.Wrappers, st.TotalCallsites, st.ConstArgs, st.TopArgs,
			st.FlowNodes, st.FlowEdges)
		if *facts {
			for _, f := range res.Facts {
				fmt.Printf("  %s\n", f)
			}
		}
		if *metaOut != "" {
			data, err := res.Meta.Marshal()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bastion-extract: marshal: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*metaOut, data, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "bastion-extract: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("extracted metadata written to %s (%d bytes)\n", *metaOut, len(data))
		}
		if *reportOut != "" || *strict {
			art, err := core.Compile(target.Build(), core.CompileOptions{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "bastion-extract: compile %s: %v\n", name, err)
				os.Exit(1)
			}
			rep := audit.DiffExtracted(name, art.Meta, res.Meta)
			report.WriteString(rep.Render())
			if rep.Errors() != 0 {
				fmt.Fprintf(os.Stderr, "bastion-extract: %s: %d error-severity finding(s)\n", name, rep.Errors())
				failed = true
			}
		}
	}
	if *reportOut == "-" {
		fmt.Print(report.String())
	} else if *reportOut != "" {
		if err := os.WriteFile(*reportOut, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bastion-extract: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("precision/recall report written to %s\n", *reportOut)
	}
	if *strict && failed {
		os.Exit(1)
	}
}
