// bastion-attack runs the security case studies of §10: the 36 attacks of
// Table 6 (the paper's 32 plus the syscall-ordering family), each against
// the unprotected baseline, each BASTION context in isolation, and the
// full configuration.
//
// Usage:
//
//	bastion-attack              # whole catalog, the report's Table 6 section
//	bastion-attack -id rop-exec-01 -v
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bastion/internal/attacks"
	"bastion/internal/bench"
)

func main() {
	id := flag.String("id", "", "run a single scenario by id")
	verbose := flag.Bool("v", false, "print per-defense outcomes")
	flag.Parse()

	if *id != "" {
		s, ok := attacks.ByID(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "bastion-attack: no scenario %q\n", *id)
			os.Exit(2)
		}
		runOne(s, *verbose)
		return
	}

	exp, _ := bench.Lookup("table6")
	t, err := exp.Run(0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bastion-attack: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(t.Markdown())
	blocked := 0
	for _, m := range t.Metrics() {
		if strings.HasSuffix(m.Name, ".full") && m.Value == 1 {
			blocked++
		}
	}
	fmt.Printf("full BASTION blocked %d/%d attacks\n", blocked, len(t.Rows))
}

func runOne(s attacks.Scenario, verbose bool) {
	fmt.Printf("%s — %s (%s, %s)\n", s.ID, s.Name, s.Category, s.App)
	for _, d := range []attacks.Defense{
		attacks.DefNone, attacks.DefCT, attacks.DefCF, attacks.DefAI,
		attacks.DefAll, attacks.DefCET, attacks.DefCFI,
	} {
		out, err := attacks.Execute(s, d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bastion-attack: %s under %s: %v\n", s.ID, d.Name, err)
			os.Exit(1)
		}
		status := "COMPLETED"
		if out.Blocked() {
			status = "blocked by " + out.KilledBy
		} else if !out.Completed {
			status = "failed"
		}
		fmt.Printf("  %-12s %s", d.Name, status)
		if verbose && out.Reason != "" {
			fmt.Printf("  (%s)", out.Reason)
		}
		fmt.Println()
	}
}
