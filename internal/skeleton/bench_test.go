package skeleton

import (
	"math/rand"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
)

func BenchmarkBuildAndTranslate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(256, 5, graph.WeightRange{Min: 1, Max: 50}, rng)
	lists := g.KNearest(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clq := cc.New(g.N(), 1)
		sk, err := Build(clq, Input{
			G: g, K: 16, A: 1, Lists: lists,
			Rng: rand.New(rand.NewSource(int64(i))),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sk.Translate(clq, sk.GS.ExactAPSP()); err != nil {
			b.Fatal(err)
		}
	}
}
