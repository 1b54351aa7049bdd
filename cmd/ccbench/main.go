// Command ccbench regenerates the paper's experiment tables: one experiment
// per theorem/lemma guarantee (t1..t9 for the tables, f1/f2 for the
// figures), plus ablations of design choices (a1..a5) and the phase profile
// (p1). It measures the algorithms only; the serving layers' costs live in
// package benchmarks checked by scripts/benchgate.sh and in perfbench.
//
// Examples:
//
//	ccbench                  # run everything, plain text
//	ccbench -exp t1,t2       # selected experiments
//	ccbench -md > results.md # markdown output
//	ccbench -quick           # small smoke-test sweep
//	ccbench -quick -json     # the tables as a machine-readable report
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"github.com/congestedclique/cliqueapsp/internal/experiments"
	"github.com/congestedclique/cliqueapsp/internal/registry"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "comma-separated experiment IDs (see -list) or 'all'")
		sizes = flag.String("sizes", "", "comma-separated graph sizes (default per suite)")
		seed  = flag.Int64("seed", 1, "random seed")
		quick = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		md    = flag.Bool("md", false, "emit Markdown instead of plain text")
		jsonF = flag.Bool("json", false, "emit a machine-readable JSON report (tables + per-experiment elapsed_ns)")
		list  = flag.Bool("list", false, "list experiments and the algorithm registry, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("algorithm registry (swept by t1/f1: headline + baselines):")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  name\tfactor bound\trounds\tbandwidth\tbaseline")
		for _, spec := range registry.All() {
			fmt.Fprintf(w, "  %s\t%s\t%s\t%s\t%v\n",
				spec.Name, spec.FactorBound, spec.RoundClass, spec.Bandwidth, spec.Baseline)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		return
	}

	suite := experiments.Suite{Seed: *seed, Quick: *quick}
	if *sizes != "" {
		for _, part := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 2 {
				fatal(fmt.Errorf("invalid size %q", part))
			}
			suite.Sizes = append(suite.Sizes, v)
		}
	}

	ids := experiments.IDs()
	if *exp != "all" {
		ids = nil
		for _, part := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(part))
		}
	}

	if *jsonF {
		report, err := experiments.RunJSON(ids, suite)
		if err != nil {
			fatal(err)
		}
		if err := experiments.WriteJSON(os.Stdout, report); err != nil {
			fatal(err)
		}
		return
	}

	for _, id := range ids {
		table, err := experiments.ByID(id, suite)
		if err != nil {
			fatal(err)
		}
		if *md {
			fmt.Print(experiments.RenderMarkdown(table))
		} else {
			fmt.Println(experiments.Render(table))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccbench:", err)
	os.Exit(1)
}
