// Tradeoff sweeps Theorem 1.2's parameter t on one graph: more rounds buy a
// doubly-exponentially better approximation guarantee. This is the paper's
// "flexibility" pitch — the same pipeline serves latency-critical and
// accuracy-critical deployments. One shared Engine serves every run.
package main

import (
	"context"
	"fmt"
	"log"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
)

func main() {
	g, err := cliqueapsp.Generate("clustered", 128, 1, 100, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: clustered graph, n=%d, m=%d\n\n", g.N(), g.NumEdges())
	fmt.Println("    t  rounds  proven bound  measured max  measured mean")

	ctx := context.Background()
	eng := cliqueapsp.New(cliqueapsp.WithAlgorithm(cliqueapsp.AlgTradeoff))
	for t := 1; t <= 4; t++ {
		res, err := eng.Run(ctx, g,
			cliqueapsp.WithT(t),
			cliqueapsp.WithSeed(9),
		)
		if err != nil {
			log.Fatal(err)
		}
		q, err := cliqueapsp.Evaluate(g, res.Distances)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %3d  %6d  %12.2f  %12.2f  %13.2f\n",
			t, res.Rounds, res.FactorBound, q.MaxRatio, q.MeanRatio)
	}

	fmt.Println("\nFor contrast, the O(1)-round O(log n)-approximation baseline (CZ22):")
	res, err := eng.Run(ctx, g,
		cliqueapsp.WithAlgorithm(cliqueapsp.AlgLogApprox),
		cliqueapsp.WithSeed(9),
	)
	if err != nil {
		log.Fatal(err)
	}
	q, err := cliqueapsp.Evaluate(g, res.Distances)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  baseline: %d rounds, proven %.2f, measured max %.2f\n",
		res.Rounds, res.FactorBound, q.MaxRatio)
}
