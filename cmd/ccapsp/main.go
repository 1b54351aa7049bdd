// Command ccapsp runs one of the registered Congested Clique APSP
// algorithms on a generated workload graph and reports the simulated
// round/message costs and the measured approximation quality.
//
// Example:
//
//	ccapsp -alg constant -gen clustered -n 256 -maxw 100 -seed 7
//	ccapsp -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
)

func main() {
	var (
		alg      = flag.String("alg", "constant", "algorithm (see -list for the registry)")
		gen      = flag.String("gen", "random", "workload generator (see -list)")
		n        = flag.Int("n", 128, "number of nodes")
		minW     = flag.Int64("minw", 1, "minimum edge weight")
		maxW     = flag.Int64("maxw", 50, "maximum edge weight")
		seed     = flag.Int64("seed", 1, "random seed (graph and algorithm)")
		t        = flag.Int("t", 1, "tradeoff parameter (alg=tradeoff)")
		eps      = flag.Float64("eps", 0.1, "accuracy slack of the scaling stages")
		bw       = flag.Int("bw", 0, "bandwidth override in words per pair per round (0 = model default)")
		det      = flag.Bool("det", false, "deterministic mode (greedy hitting sets)")
		in       = flag.String("in", "", "load graph from file (ccgen format) instead of generating")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		progress = flag.Bool("progress", false, "print phase boundaries as the run progresses")
		list     = flag.Bool("list", false, "list the algorithm registry and generators, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("algorithms:")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  name\tfactor bound\trounds\tbandwidth\tsummary")
		for _, info := range cliqueapsp.AlgorithmInfos() {
			fmt.Fprintf(w, "  %s\t%s\t%s\t%s\t%s\n",
				info.Name, info.FactorBound, info.RoundClass, info.Bandwidth, info.Summary)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		fmt.Println("generators:")
		for _, g := range cliqueapsp.Generators() {
			fmt.Printf("  %s\n", g)
		}
		return
	}

	var g *cliqueapsp.Graph
	var err error
	if *in != "" {
		f, err2 := os.Open(*in)
		if err2 != nil {
			fatal(err2)
		}
		g, err = cliqueapsp.ReadGraph(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		*gen = *in
	} else {
		g, err = cliqueapsp.Generate(*gen, *n, *minW, *maxW, *seed)
	}
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	runOpts := []cliqueapsp.RunOption{
		cliqueapsp.WithAlgorithm(cliqueapsp.Algorithm(*alg)),
		cliqueapsp.WithSeed(*seed),
		cliqueapsp.WithT(*t),
		cliqueapsp.WithEps(*eps),
		cliqueapsp.WithBandwidth(*bw),
		cliqueapsp.WithDeterministicRun(*det),
	}
	if *progress {
		start := time.Now()
		runOpts = append(runOpts, cliqueapsp.WithProgress(func(phase string) {
			fmt.Fprintf(os.Stderr, "ccapsp: [%8.3fs] phase %s\n", time.Since(start).Seconds(), phase)
		}))
	}
	res, err := cliqueapsp.New().Run(ctx, g, runOpts...)
	if err != nil {
		fatal(err)
	}
	q, err := cliqueapsp.Evaluate(g, res.Distances)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("graph      : %s, n=%d, m=%d edges\n", *gen, g.N(), g.NumEdges())
	fmt.Printf("algorithm  : %s (seed %d)\n", res.Algorithm, res.Seed)
	fmt.Printf("rounds     : %d\n", res.Rounds)
	fmt.Printf("messages   : %d (%d words)\n", res.Messages, res.Words)
	fmt.Printf("proven     : %.2f-approximation\n", res.FactorBound)
	fmt.Printf("measured   : max ratio %.3f, mean ratio %.3f, underruns %d\n",
		q.MaxRatio, q.MeanRatio, q.Underruns)
	if len(res.Violations) > 0 {
		fmt.Printf("VIOLATIONS : %v\n", res.Violations)
	}

	fmt.Println("\nphase breakdown:")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  phase\trounds\tmessages\twords")
	for _, p := range res.Phases {
		if p.Rounds == 0 && p.Messages == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s\t%d\t%d\t%d\n", p.Name, p.Rounds, p.Messages, p.Words)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccapsp:", err)
	os.Exit(1)
}
