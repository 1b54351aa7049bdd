package knearest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
)

// TestPropertyComputeMatchesReference is the package's central property:
// for random directed graphs and random legal parameters, the distributed
// bin/h-combination algorithm equals the per-source Bellman–Ford reference
// (which is simultaneously an empirical proof of Lemma 5.5 on that input).
func TestPropertyComputeMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(80)
		g := graph.NewDirected(n)
		arcs := n + rng.Intn(4*n)
		for i := 0; i < arcs; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddArc(u, v, int64(1+rng.Intn(30)))
			}
		}
		h := 2 + rng.Intn(2)
		k := 1 + rng.Intn(int(math.Pow(float64(n), 1/float64(h)))+1)
		iters := 1 + rng.Intn(2)
		clq := cc.New(n, 1)
		res, err := Compute(nil, clq, g, k, h, iters)
		if err != nil {
			return false
		}
		hops := 1
		for j := 0; j < iters; j++ {
			hops *= h
		}
		want := Reference(g, res.K, hops)
		for u := range want {
			if len(res.Lists[u]) != len(want[u]) {
				return false
			}
			for i := range want[u] {
				if res.Lists[u][i] != want[u][i] {
					return false
				}
			}
		}
		return len(clq.Metrics().Violations) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyListsSortedAndDominated checks structural invariants: lists
// are (dist, ID)-sorted, start with the self entry, and all reported
// distances dominate the true (unbounded-hop) distances.
func TestPropertyListsSortedAndDominated(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		g := graph.RandomConnected(n, 3, graph.WeightRange{Min: 1, Max: 20}, rng).AsDirected()
		clq := cc.New(n, 1)
		res, err := Compute(nil, clq, g, 1+rng.Intn(6), 2, 1+rng.Intn(2))
		if err != nil {
			return false
		}
		exact := g.ExactAPSP()
		for u, l := range res.Lists {
			if len(l) == 0 || l[0].Node != u || l[0].Dist != 0 {
				return false
			}
			for i, nd := range l {
				if nd.Dist < exact.At(u, nd.Node) {
					return false // reported below true distance
				}
				if i > 0 {
					prev := l[i-1]
					if nd.Dist < prev.Dist || (nd.Dist == prev.Dist && nd.Node < prev.Node) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
