package spanner

import (
	"math/rand"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/graph"
)

func BenchmarkBaswanaSen(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(256, 10, graph.WeightRange{Min: 1, Max: 50}, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BaswanaSen(g, 3, rand.New(rand.NewSource(int64(i))))
	}
}

func BenchmarkGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(256, 10, graph.WeightRange{Min: 1, Max: 50}, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(g, 3)
	}
}

// BenchmarkGreedySkeleton builds the 3-spanner of a graph shaped like the
// skeleton graph G_S of an n=1024 constant build: complete on 108 nodes.
func BenchmarkGreedySkeleton(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Complete(108, graph.WeightRange{Min: 1, Max: 100}, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(g, 2)
	}
}
