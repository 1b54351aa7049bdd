package core

import (
	"math"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/hopset"
	"github.com/congestedclique/cliqueapsp/internal/skeleton"
)

// SmallDiameterAPSP implements Theorem 7.1: an O(1)-approximation of APSP
// for graphs of small weighted diameter in O(log log log n) rounds:
// bootstrap with LogApprox, repeatedly apply the Lemma 3.1 reduction, then
// run the final hopset → √n-nearest → skeleton stage. With bigBandwidth
// (the Congested-Clique[log³n] regime) the skeleton graph's full edge set is
// broadcast and solved exactly (7-approximation); otherwise a 3-spanner of
// the skeleton is used (21-approximation).
//
// When cfg.MaxReduceIters > 0 the pipeline runs the round-limited variant of
// Lemma 8.2: LogApprox plus exactly that many reductions, skipping the final
// stage.
func SmallDiameterAPSP(clq *cc.Clique, g *graph.Graph, cfg Config, bigBandwidth bool) (Estimate, error) {
	if err := validateInput(g); err != nil {
		return Estimate{}, err
	}
	cfg = cfg.withDefaults()
	n := g.N()
	if n <= 4 {
		return checkpointedBruteForce(clq, g, cfg, "smalldiam/bruteforce")
	}

	if err := cfg.Checkpoint(clq, "smalldiam/bootstrap"); err != nil {
		return Estimate{}, err
	}
	est, err := LogApprox(clq, g, cfg)
	if err != nil {
		return Estimate{}, err
	}

	// Iterated approximation-factor reduction. The paper runs
	// O(log log log n) iterations until the factor reaches the
	// (log log n)^{O(1)} regime; we run the same count with a practical
	// floor (further reductions cannot prove anything below 7·3 = 21).
	iters := reduceIterations(n)
	limited := cfg.MaxReduceIters > 0
	if limited {
		iters = cfg.MaxReduceIters
	}
	for i := 0; i < iters; i++ {
		if err := cfg.Checkpoint(clq, "smalldiam/reduce"); err != nil {
			return Estimate{}, err
		}
		est, err = ReduceApprox(clq, g, est, cfg)
		if err != nil {
			return Estimate{}, err
		}
	}
	if limited {
		return est, nil
	}

	// Final stage: hopset from the current estimate, exact distances to the
	// √n-nearest nodes with h=2, skeleton with k=√n, and an exact or
	// 3-spanner solution on G_S.
	if err := cfg.Checkpoint(clq, "smalldiam/final"); err != nil {
		return Estimate{}, err
	}
	k := intSqrt(n)
	h, err := hopset.Build(clq, g.AsDirected(), est.D, k)
	if err != nil {
		return Estimate{}, err
	}
	gh := graph.UnionDirected(g.AsDirected(), h)
	beta := hopset.HopBound(est.Factor, diameterBound(g, est.D))
	i := 1
	for pow := 2; pow < beta; pow *= 2 {
		i++
	}
	res, err := cfg.knearest.Compute(cfg.Par, clq, gh, k, 2, i)
	if err != nil {
		return Estimate{}, err
	}
	sk, err := skeleton.Build(clq, skeleton.Input{
		G: g, K: res.K, A: 1, Lists: res.Lists, Rng: cfg.Rng, Deterministic: cfg.Deterministic,
	})
	if err != nil {
		return Estimate{}, err
	}

	var gsEst Estimate
	if bigBandwidth {
		// Broadcast all skeleton edges and solve exactly: l = 1.
		gsEst = BruteForce(clq, sk.GS)
	} else {
		gsEst, err = spannerApprox(clq, sk.GS, 2) // 3-spanner: l = 3
		if err != nil {
			return Estimate{}, err
		}
	}
	eta, err := sk.Translate(clq, gsEst.D)
	if err != nil {
		return Estimate{}, err
	}
	out := Estimate{D: eta, Factor: skeleton.TranslationFactor(gsEst.Factor, 1)}
	return minCombine(est, out), nil
}

// reduceIterations returns the paper's Θ(log log log n) iteration count,
// at least 1.
func reduceIterations(n int) int {
	v := math.Log2(math.Max(2, math.Log2(math.Max(2, log2(n)))))
	return clampInt(int(math.Ceil(v)), 1, 4)
}

// SmallDiameterPaperFactor documents the two proven endpoints of
// Theorem 7.1: 21 in the standard model and 7 in Congested-Clique[log³n].
// The pipeline's returned Factor is the compositional bound from the stages
// actually run, which at laptop scale is typically tighter.
func SmallDiameterPaperFactor(bigBandwidth bool) float64 {
	if bigBandwidth {
		return 7
	}
	return 21
}
