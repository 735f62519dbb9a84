// Punctcheck is the compile-time safety checker as a command line tool:
// it reads a streamsql script (CREATE STREAM, DECLARE SCHEME, SELECT),
// runs the paper's safety analysis on every SELECT against the script's
// punctuation schemes, and explains each verdict — the per-stream purge
// plans; with -v the punctuation graph and the TPG transformation trace;
// with -plans the safe execution plans with costs.
//
// Usage:
//
//	punctcheck [-v] [-plans] [-dot pg|gpg|tpg] [script.sql]
//
// With no file the script is read from stdin. Exit status 0 = every query
// safe, 1 = some query unsafe, 2 = invalid input.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"punctsafe/plan"
	"punctsafe/safety"
	"punctsafe/streamsql"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is punctcheck with its arguments, streams and exit status made
// explicit, so tests drive the same path main does.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("punctcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "print the punctuation graph and TPG transformation trace")
	plans := fs.Bool("plans", false, "enumerate safe execution plans with estimated costs")
	dot := fs.String("dot", "", "emit a Graphviz graph per query instead of text: pg | gpg | tpg")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: punctcheck [-v] [-plans] [-dot pg|gpg|tpg] [script.sql]")
		fmt.Fprintln(stderr, "The script is streamsql: CREATE STREAM, DECLARE SCHEME and SELECT statements.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *dot {
	case "", "pg", "gpg", "tpg":
	default:
		fmt.Fprintf(stderr, "unknown -dot target %q (pg | gpg | tpg)\n", *dot)
		return 2
	}
	if fs.NArg() > 1 {
		fs.Usage()
		return 2
	}
	var src []byte
	var err error
	if fs.NArg() == 1 {
		src, err = os.ReadFile(fs.Arg(0))
	} else {
		src, err = io.ReadAll(stdin)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	script, err := streamsql.Parse(string(src))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cqs, err := streamsql.Compile(script)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(cqs) == 0 {
		fmt.Fprintln(stderr, "streamsql: no SELECT statements")
		return 2
	}

	status := 0
	for i, cq := range cqs {
		q, schemes, rep := cq.Query, script.Schemes, cq.Report
		if !rep.Safe {
			status = 1
		}
		switch *dot {
		case "pg":
			fmt.Fprint(stdout, safety.BuildPG(q, schemes).Dot())
		case "gpg":
			fmt.Fprint(stdout, safety.BuildGPG(q, schemes).Dot())
		case "tpg":
			fmt.Fprint(stdout, safety.Transform(q, schemes).Dot())
		}
		if *dot != "" {
			continue
		}
		fmt.Fprintf(stdout, "-- query %d --\n", i+1)
		fmt.Fprint(stdout, rep.Explain(q))
		if *verbose {
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, "punctuation graph:", safety.BuildPG(q, schemes))
			if gens := safety.BuildGPG(q, schemes).GenEdges(); len(gens) > 0 {
				fmt.Fprintln(stdout, "generalized edges:")
				for _, e := range gens {
					fmt.Fprintf(stdout, "  -> %s via %s\n", q.Stream(e.Head).Name(), e.Scheme)
				}
			}
			fmt.Fprintln(stdout, "TPG transformation:")
			fmt.Fprint(stdout, safety.Transform(q, schemes))
		}
		if *plans && rep.Safe {
			fmt.Fprintln(stdout)
			model := plan.DefaultCostModel(q)
			safePlans, err := plan.EnumerateSafe(q, schemes, model)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			fmt.Fprintf(stdout, "safe execution plans (%d):\n", len(safePlans))
			for j, p := range safePlans {
				fmt.Fprintf(stdout, "  %d. %-36s cost: %s\n", j+1, p.Render(q), model.PlanCost(q, schemes, p))
			}
		}
	}
	return status
}
