// bastionc is the BASTION compiler front end: it assembles one of the
// bundled guest applications, runs the analysis/instrumentation pass, and
// reports call-type classification, instrumentation statistics, and
// (optionally) the generated context metadata and instrumented IR listing.
//
// Usage:
//
//	bastionc -app nginx [-meta out.json] [-dump-ir] [-summary] [-audit]
//	bastionc -app nginx -binary-only [-meta out.json]
//
// With -binary-only the compiler pass is skipped entirely: the program is
// linked uninstrumented and the policy artifact is recovered by the
// B-Side static extractor (internal/core/binscan), exactly as for a guest
// whose build system offers no compiler cooperation.
package main

import (
	"flag"
	"fmt"
	"os"

	"bastion/internal/audit"
	"bastion/internal/core"
	"bastion/internal/core/binscan"
	"bastion/internal/ir/irtext"
	"bastion/internal/workload"
)

func main() {
	app := flag.String("app", "nginx", "guest application: nginx | sqlite | vsftpd")
	metaOut := flag.String("meta", "", "write context metadata JSON to this file")
	dumpIR := flag.Bool("dump-ir", false, "print the instrumented IR listing")
	irOut := flag.String("o", "", "write the instrumented IR listing (.bir) to this file")
	summary := flag.Bool("summary", true, "print the call-type summary")
	doAudit := flag.Bool("audit", false, "audit the generated metadata against the instrumented program; exit 1 on any error-severity finding")
	binaryOnly := flag.Bool("binary-only", false, "skip the compiler pass; extract the policy from the uninstrumented binary (B-Side mode)")
	flag.Parse()

	target, err := workload.NewTarget(*app)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bastionc: unknown app %q\n", *app)
		os.Exit(2)
	}
	prog := target.Build()

	var art *core.Artifact
	if *binaryOnly {
		res, err := binscan.Extract(prog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bastionc: extract: %v\n", err)
			os.Exit(1)
		}
		art = &core.Artifact{Prog: prog, Meta: res.Meta}
		es := res.Stats
		fmt.Printf("bastionc: extracted %s (binary-only, no instrumentation)\n", *app)
		fmt.Printf(" functions: %d (%d syscall wrappers, %d sensitive)\n",
			es.Funcs, es.Wrappers, es.SensitiveWrappers)
		fmt.Printf(" callsites: %d total (%d direct, %d indirect), %d sensitive\n",
			es.TotalCallsites, es.DirectCallsites, es.IndirectCallsites, es.SensitiveCallsites)
		fmt.Printf(" arguments: %d constants recovered, %d abandoned to top\n",
			es.ConstArgs, es.TopArgs)
		fmt.Printf(" control flow: %d coarse indirect edges, %d address-taken targets; flow graph %d nodes, %d edges\n",
			es.CoarseEdges, es.AddressTaken, es.FlowNodes, es.FlowEdges)
	} else {
		var err error
		art, err = core.Compile(prog, core.CompileOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bastionc: %v\n", err)
			os.Exit(1)
		}
	}

	if !*binaryOnly {
		s := art.Stats
		fmt.Printf("bastionc: compiled %s\n", *app)
		fmt.Printf(" callsites: %d total (%d direct, %d indirect), %d sensitive\n",
			s.TotalCallsites, s.DirectCallsites, s.IndirectCallsites, s.SensitiveCallsites)
		fmt.Printf(" instrumentation: %d ctx_write_mem, %d ctx_bind_mem, %d ctx_bind_const (%d total)\n",
			s.CtxWriteMem, s.CtxBindMem, s.CtxBindConst, s.Total())
		fmt.Printf(" untraced arguments: %d\n", s.UntracedArgs)
		fmt.Printf(" indirect refinement: edges %d -> %d, allowed pairs %d -> %d (%d exact, %d escaped sites)\n",
			s.IndirectEdgesCoarse, s.IndirectEdgesRefined,
			s.AllowedPairsCoarse, s.AllowedPairsRefined,
			s.ExactIndirectSites, s.EscapedIndirectSites)
	}

	if *summary {
		fmt.Print(art.Meta.Summary())
	}
	if *metaOut != "" {
		data, err := art.Meta.Marshal()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bastionc: marshal: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*metaOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bastionc: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metadata written to %s (%d bytes)\n", *metaOut, len(data))
	}
	if *dumpIR {
		fmt.Println(art.Prog.String())
	}
	if *irOut != "" {
		listing := art.Prog.String()
		// Self-check: the listing must reparse to a fixed point before it
		// is handed to anyone.
		if _, err := irtext.Parse(listing); err != nil {
			fmt.Fprintf(os.Stderr, "bastionc: listing does not round-trip: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*irOut, []byte(listing), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bastionc: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("instrumented listing written to %s\n", *irOut)
	}
	if *doAudit {
		rep := audit.Run(*app, art.Prog, art.Meta)
		fmt.Print(rep.Render())
		if n := rep.Errors(); n != 0 {
			fmt.Fprintf(os.Stderr, "bastionc: audit found %d error(s)\n", n)
			os.Exit(1)
		}
	}
}
