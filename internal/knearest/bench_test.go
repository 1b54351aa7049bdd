package knearest

import (
	"math/rand"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
)

func BenchmarkCompute(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(256, 5, graph.WeightRange{Min: 1, Max: 50}, rng).AsDirected()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clq := cc.New(g.N(), 1)
		if _, err := Compute(nil, clq, g, 16, 2, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReference(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(256, 5, graph.WeightRange{Min: 1, Max: 50}, rng).AsDirected()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reference(g, 16, 4)
	}
}
