package hopset

import (
	"math/rand"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
)

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(256, 5, graph.WeightRange{Min: 1, Max: 50}, rng)
	exact := g.ExactAPSP()
	dg := g.AsDirected()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clq := cc.New(g.N(), 1)
		if _, err := Build(clq, dg, exact, 16); err != nil {
			b.Fatal(err)
		}
	}
}
