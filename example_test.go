package cliqueapsp_test

import (
	"context"
	"fmt"
	"log"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
)

// The basic flow: build a graph, run an algorithm on a shared Engine, read
// estimates through the zero-copy view.
func ExampleEngine_Run() {
	g := cliqueapsp.NewGraph(4)
	_ = g.AddEdge(0, 1, 3)
	_ = g.AddEdge(1, 2, 1)
	_ = g.AddEdge(2, 3, 2)

	eng := cliqueapsp.New()
	// The exact baseline is deterministic, so its output is stable.
	res, err := eng.Run(context.Background(), g,
		cliqueapsp.WithAlgorithm(cliqueapsp.AlgExact))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("d(0,3) =", res.Distances.At(0, 3))
	fmt.Println("factor =", res.FactorBound)
	// Output:
	// d(0,3) = 6
	// factor = 1
}

// A one-shot run needs no shared Engine: New().Run with the same options.
func ExampleNew() {
	g := cliqueapsp.NewGraph(4)
	_ = g.AddEdge(0, 1, 3)
	_ = g.AddEdge(1, 2, 1)
	_ = g.AddEdge(2, 3, 2)

	res, err := cliqueapsp.New().Run(context.Background(), g, cliqueapsp.WithAlgorithm(cliqueapsp.AlgExact))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("d(0,3) =", res.Distances.At(0, 3))
	// Output:
	// d(0,3) = 6
}

// A distance estimate routes packets: each hop goes to the neighbor whose
// edge weight plus estimated distance to the destination is smallest.
func ExampleRouteToward() {
	g := cliqueapsp.NewGraph(3)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(1, 2, 1)
	_ = g.AddEdge(0, 2, 10)

	path, cost, err := cliqueapsp.RouteToward(g, 0, 2, cliqueapsp.Exact(g).Row(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("route from 0 to 2:", path, "cost", cost)
	// Output:
	// route from 0 to 2: [0 1 2] cost 2
}

// Estimates from any algorithm can be scored against the exact distances.
func ExampleEvaluate() {
	g := cliqueapsp.RandomGraph(32, 20, 7)
	eng := cliqueapsp.New()
	res, err := eng.Run(context.Background(), g,
		cliqueapsp.WithAlgorithm(cliqueapsp.AlgExact))
	if err != nil {
		log.Fatal(err)
	}
	q, err := cliqueapsp.Evaluate(g, res.Distances)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max ratio %.1f, underruns %d\n", q.MaxRatio, q.Underruns)
	// Output:
	// max ratio 1.0, underruns 0
}

// The registry drives discovery: every registered algorithm reports its
// metadata.
func ExampleAlgorithmInfos() {
	for _, info := range cliqueapsp.AlgorithmInfos() {
		if info.Name == cliqueapsp.AlgConstant {
			fmt.Println(info.Name, "—", info.RoundClass)
		}
	}
	// Output:
	// constant — O(log log log n)
}
