// Package cliqueapsp is a Go implementation of "Improved All-Pairs
// Approximate Shortest Paths in Congested Clique" (Bui, Chandra, Chang,
// Dory, Leitersdorf — PODC 2024), together with a round-accurate Congested
// Clique simulator and every substrate the paper builds on: Lenzen-style
// routing, sparse min-plus matrix products, Baswana–Sen and greedy spanners,
// k-nearest β-hopsets, the bin/h-combination k-nearest algorithm, skeleton
// graphs, and the weight-scaling reduction.
//
// The public API is a reusable, concurrency-safe Engine that runs any
// registered algorithm (the paper's results or the baselines they are
// compared against) on a weighted undirected graph and reports the distance
// estimates together with the simulated round/message accounting:
//
//	g := cliqueapsp.NewGraph(4)
//	_ = g.AddEdge(0, 1, 3)
//	_ = g.AddEdge(1, 2, 1)
//	_ = g.AddEdge(2, 3, 2)
//	eng := cliqueapsp.New()
//	res, err := eng.Run(ctx, g, cliqueapsp.WithAlgorithm(cliqueapsp.AlgConstant))
//
// One Engine serves any number of concurrent Run calls; each run draws its
// own reproducible seed (pin one with WithSeed), polls its context at phase
// boundaries, and returns its estimate as a zero-copy DistanceMatrix view.
// Algorithms always meet their round accounting; approximation guarantees
// hold w.h.p. (the algorithms are Monte Carlo, like the paper's), and every
// estimate dominates the true distances.
package cliqueapsp

import (
	"fmt"

	"github.com/congestedclique/cliqueapsp/internal/core"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
)

// Inf marks an unreachable pair in distance matrices.
const Inf = minplus.Inf

// EngineVersion stamps results produced by this build of the engine. It is
// recorded as provenance in persisted oracle snapshots (package store) so a
// restored estimate can always be traced to the engine revision that
// computed it; bump it when a change alters per-seed outputs.
const EngineVersion = "cliqueapsp/4"

// Graph is a weighted undirected input graph under construction. Nodes are
// 0..n-1; edge weights are nonnegative integers (zero-weight edges are
// handled via the paper's Theorem 2.1 reduction).
type Graph struct {
	inner *graph.Graph
}

// NewGraph returns an empty graph on n nodes (n ≥ 1).
func NewGraph(n int) *Graph {
	if n < 1 {
		n = 1
	}
	return &Graph{inner: graph.New(n)}
}

// AddEdge adds the undirected edge {u,v} with weight w ≥ 0. Self loops,
// out-of-range endpoints and negative weights are rejected.
func (g *Graph) AddEdge(u, v int, w int64) error {
	if u < 0 || u >= g.inner.N() || v < 0 || v >= g.inner.N() {
		return fmt.Errorf("cliqueapsp: endpoint out of range: (%d,%d) with n=%d", u, v, g.inner.N())
	}
	if u == v {
		return fmt.Errorf("cliqueapsp: self loop at node %d", u)
	}
	if w < 0 {
		return fmt.Errorf("cliqueapsp: negative weight %d", w)
	}
	g.inner.AddEdge(u, v, w)
	return nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.inner.N() }

// NumEdges returns the number of edges added so far.
func (g *Graph) NumEdges() int { return g.inner.NumEdges() }

// Edge is one undirected edge of a Graph, with U < V.
type Edge struct {
	U, V int
	W    int64
}

// Edges returns a copy of the graph's edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.inner.NumEdges())
	for u := 0; u < g.inner.N(); u++ {
		for _, a := range g.inner.Out(u) {
			if u < a.To {
				out = append(out, Edge{U: u, V: a.To, W: a.W})
			}
		}
	}
	return out
}

// Exact returns the exact distance matrix of g, computed centrally (no
// simulated rounds) — the ground truth for Evaluate. The result is a
// zero-copy view over freshly computed storage.
func Exact(g *Graph) *DistanceMatrix {
	return newDistanceView(g.inner.ExactAPSP())
}

// Quality summarizes estimate quality against exact distances.
type Quality struct {
	// MaxRatio and MeanRatio are the worst and average estimate/exact ratio
	// over connected pairs.
	MaxRatio  float64
	MeanRatio float64
	// Underruns counts entries below the true distance (0 for sound runs).
	Underruns int
}

// Evaluate compares estimates (as returned in Result.Distances) against the
// exact distances of g.
func Evaluate(g *Graph, distances *DistanceMatrix) (Quality, error) {
	if distances == nil {
		return Quality{}, fmt.Errorf("cliqueapsp: nil distance matrix")
	}
	if n := g.inner.N(); distances.N() != n {
		return Quality{}, fmt.Errorf("cliqueapsp: %d×%d distances for %d nodes", distances.N(), distances.N(), n)
	}
	maxR, meanR, under := core.MeasureQuality(distances.dense(), g.inner.ExactAPSP())
	return Quality{MaxRatio: maxR, MeanRatio: meanR, Underruns: under}, nil
}
