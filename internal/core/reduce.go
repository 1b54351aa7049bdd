package core

import (
	"fmt"
	"math"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/hopset"
	"github.com/congestedclique/cliqueapsp/internal/skeleton"
)

// reduceParams holds the Lemma 3.1 parameter choices: the paper's formulas
// h = a^{1/4}/2, k = n^{1/h}, b = √a with the laptop-scale clamps
// documented in DESIGN.md (h ≥ 2, 2 ≤ k ≤ √n, b ≥ 2).
type reduceParams struct {
	h, k, iters, b int
	beta           int
}

func newReduceParams(n int, a float64, diam int64) reduceParams {
	p := reduceParams{}
	p.beta = hopset.HopBound(a, diam)
	p.h = clampInt(int(math.Pow(a, 0.25)/2), 2, n)
	p.k = clampInt(int(math.Pow(float64(n), 1/float64(p.h))), 2, intSqrt(n))
	p.iters = 1
	for pow := p.h; pow < p.beta; pow *= p.h {
		p.iters++
	}
	p.b = clampInt(int(math.Round(math.Sqrt(a))), 2, n)
	return p
}

// ReduceApprox implements Lemma 3.1 (approximation factor reduction): given
// an a-approximation of APSP on g, it computes in O(1) rounds an estimate
// with proven factor 7·(2b−1) for b ≈ √a — at most 15√a — via the
// hopset → k-nearest → skeleton → spanner pipeline of §7.2. The result is
// pointwise-min combined with the input, so the returned factor is
// min(a, 7(2b−1)) and the estimate never regresses.
func ReduceApprox(clq *cc.Clique, g *graph.Graph, est Estimate, cfg Config) (Estimate, error) {
	if err := validateInput(g); err != nil {
		return Estimate{}, err
	}
	cfg = cfg.withDefaults()
	n := g.N()
	diam := diameterBound(g, est.D)
	p := newReduceParams(n, est.Factor, diam)

	// Step 1: √n-nearest O(a·log d)-hopset from the current estimate
	// (Lemma 3.2).
	h, err := hopset.Build(clq, g.AsDirected(), est.D, intSqrt(n))
	if err != nil {
		return Estimate{}, fmt.Errorf("reduce: %w", err)
	}
	gh := graph.UnionDirected(g.AsDirected(), h)

	// Step 2: exact distances to the k-nearest nodes (Lemma 3.3), with
	// h^iters ≥ β so the hopset's low-hop paths are within reach.
	res, err := cfg.knearest.Compute(cfg.Par, clq, gh, p.k, p.h, p.iters)
	if err != nil {
		return Estimate{}, fmt.Errorf("reduce: %w", err)
	}

	// Step 3: skeleton graph on O(n·log k/k) nodes (Lemma 3.4; a=1 since
	// the lists are exact).
	sk, err := skeleton.Build(clq, skeleton.Input{
		G: g, K: res.K, A: 1, Lists: res.Lists, Rng: cfg.Rng, Deterministic: cfg.Deterministic,
	})
	if err != nil {
		return Estimate{}, fmt.Errorf("reduce: %w", err)
	}

	// Step 4: (2b−1)-approximate APSP on G_S by spanner broadcast
	// (Corollary 7.1 with b ≈ √a), then translate back through the skeleton.
	gsEst, err := spannerApprox(clq, sk.GS, p.b)
	if err != nil {
		return Estimate{}, fmt.Errorf("reduce: %w", err)
	}
	eta, err := sk.Translate(clq, gsEst.D)
	if err != nil {
		return Estimate{}, fmt.Errorf("reduce: %w", err)
	}
	out := Estimate{D: eta, Factor: skeleton.TranslationFactor(gsEst.Factor, 1)}
	return minCombine(est, out), nil
}
