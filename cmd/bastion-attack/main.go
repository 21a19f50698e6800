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
	"io"
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
		if err := runOne(os.Stdout, s, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "bastion-attack: %v\n", err)
			os.Exit(1)
		}
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

// runOne prints one scenario's outcome under every defense in
// attacks.Defenses.
func runOne(w io.Writer, s attacks.Scenario, verbose bool) error {
	fmt.Fprintf(w, "%s — %s (%s, %s)\n", s.ID, s.Name, s.Category, s.App)
	for _, d := range attacks.Defenses {
		out, err := attacks.Execute(s, d)
		if err != nil {
			return fmt.Errorf("%s under %s: %w", s.ID, d.Name, err)
		}
		status := "COMPLETED"
		if out.Blocked() {
			status = "blocked by " + out.KilledBy
		} else if !out.Completed {
			status = "failed"
		}
		fmt.Fprintf(w, "  %-12s %s", d.Name, status)
		if verbose && out.Reason != "" {
			fmt.Fprintf(w, "  (%s)", out.Reason)
		}
		fmt.Fprintln(w)
	}
	return nil
}
