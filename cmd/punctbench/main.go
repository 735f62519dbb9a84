// Punctbench regenerates every table of the reproduction suite (see
// DESIGN.md §5 and EXPERIMENTS.md): the paper's figures 1, 3, 5, 7, 8-10
// as runtime scenarios plus the §4.3 and §5 quantitative claims.
//
// Usage:
//
//	punctbench            # run all experiments
//	punctbench -e E4,E8   # run a subset
//	punctbench -md        # emit markdown tables (for EXPERIMENTS.md)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"punctsafe/experiments"
)

func main() {
	only := flag.String("e", "", "comma-separated experiment ids (default: all)")
	md := flag.Bool("md", false, "emit markdown tables")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	runners := map[string]func() *experiments.Table{
		"E1":  func() *experiments.Table { return experiments.E1Auction(nil) },
		"E2":  experiments.E2ChainedPurge,
		"E3":  func() *experiments.Table { return experiments.E3MJoinSafe(0) },
		"E4":  func() *experiments.Table { return experiments.E4UnsafeBinaryTree(0) },
		"E5":  func() *experiments.Table { return experiments.E5MultiAttr(0) },
		"E6":  func() *experiments.Table { return experiments.E6TPGvsGPG(nil) },
		"E7":  func() *experiments.Table { return experiments.E7SchemeChoice(nil) },
		"E8":  func() *experiments.Table { return experiments.E8EagerLazy(nil) },
		"E9":  func() *experiments.Table { return experiments.E9PunctStore(0) },
		"E10": func() *experiments.Table { return experiments.E10CheckerScaling(nil) },
		"E11": func() *experiments.Table { return experiments.E11WindowVsPunct(0) },
		"E12": func() *experiments.Table { return experiments.E12Adaptive(0) },
		"E13": func() *experiments.Table { return experiments.E13Watermarks(0) },
		"E14": func() *experiments.Table { return experiments.E14PlanChoice(0) },
		"E15": func() *experiments.Table { return experiments.E15PunctDelay(0) },
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}

	ran := 0
	for _, id := range order {
		if len(want) > 0 && !want[id] {
			continue
		}
		table := runners[id]()
		if *md {
			fmt.Println(table.Markdown())
		} else {
			fmt.Println(table.Render())
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q (known: %s)\n", *only, strings.Join(order, ","))
		os.Exit(2)
	}
}
