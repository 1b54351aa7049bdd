// Routing forwards packets greedily over approximate APSP — the classic
// application motivating distributed shortest paths (paper §1:
// "particularly important in distributed computing due to its close
// connection to network routing").
//
// To reach v, each node u hands the packet to the neighbor x minimizing
// w(u,x) + δ(x,v) over the approximate distances δ. The example compares
// the realized forwarding stretch over the Theorem 1.1 estimates against
// the O(1)-round CZ22 baseline estimates. The estimates come from the
// algorithm registry, so a newly registered algorithm can be compared by
// adding its name to the slice.
package main

import (
	"context"
	"fmt"
	"log"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
)

func main() {
	const n = 96
	g, err := cliqueapsp.Generate("powerlaw", n, 1, 20, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: scale-free, n=%d, m=%d edges\n\n", g.N(), g.NumEdges())
	fmt.Println("estimate                rounds  worst stretch  mean stretch  delivered  failed")

	ctx := context.Background()
	eng := cliqueapsp.New()
	for _, alg := range []cliqueapsp.Algorithm{
		cliqueapsp.AlgConstant,
		cliqueapsp.AlgLogApprox,
	} {
		res, err := eng.Run(ctx, g,
			cliqueapsp.WithAlgorithm(alg),
			cliqueapsp.WithSeed(5),
		)
		if err != nil {
			log.Fatal(err)
		}
		stats, err := cliqueapsp.SimulateForwarding(g, res.Distances)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s  %6d  %13.2f  %12.2f  %9d  %6d\n",
			alg, res.Rounds, stats.WorstStretch, stats.MeanStretch,
			stats.Delivered, stats.Failed)
	}

	// Exact distances as the reference point.
	stats, err := cliqueapsp.SimulateForwarding(g, cliqueapsp.Exact(g))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s  %6s  %13.2f  %12.2f  %9d  %6d\n",
		"exact (oracle)", "-", stats.WorstStretch, stats.MeanStretch,
		stats.Delivered, stats.Failed)
}
