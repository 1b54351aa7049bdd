package core

import (
	"math"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/skeleton"
)

// APSP implements Theorem 1.1: a (7⁴+ε)-approximation of APSP in the
// standard Congested Clique model in O(log log log n) rounds. Pipeline
// (§8.3):
//
//  1. exact distances to the k-nearest nodes directly on G (Lemma 5.2; the
//     paper's k = log⁴n, clamped to √n at laptop scale), exploiting that a
//     node's k nearest lie within k hops;
//  2. skeleton graph with that k (Lemma 3.4);
//  3. Theorem 8.1 simulated on the skeleton graph in a subclique whose
//     bandwidth is chosen so each simulated round routes through the parent
//     clique in O(1) rounds (Lemma 2.1);
//  4. translation back, for a final factor 7·(Theorem 8.1 factor).
func APSP(clq *cc.Clique, g *graph.Graph, cfg Config) (Estimate, error) {
	if err := validateInput(g); err != nil {
		return Estimate{}, err
	}
	cfg = cfg.withDefaults()
	n := g.N()
	if n <= 8 {
		return checkpointedBruteForce(clq, g, cfg, "theorem11/bruteforce")
	}
	if err := cfg.Checkpoint(clq, "theorem11/knearest"); err != nil {
		return Estimate{}, err
	}

	// Step 1: k-nearest directly on G. Paper: k = log⁴n,
	// h = Θ(log n/log log n), i = O(1); clamps per DESIGN.md.
	k := clampInt(int(math.Pow(log2(n), 4)), 2, intSqrt(n))
	hPar := clampInt(int(math.Log(float64(n))/math.Log(float64(k))), 2, n)
	iPar := 1
	for pow := hPar; pow < k; pow *= hPar {
		iPar++
	}
	res, err := cfg.knearest.Compute(cfg.Par, clq, g.AsDirected(), k, hPar, iPar)
	if err != nil {
		return Estimate{}, err
	}

	// Step 2: skeleton graph (exact lists, a = 1).
	if err := cfg.Checkpoint(clq, "theorem11/skeleton"); err != nil {
		return Estimate{}, err
	}
	sk, err := skeleton.Build(clq, skeleton.Input{
		G: g, K: res.K, A: 1, Lists: res.Lists, Rng: cfg.Rng, Deterministic: cfg.Deterministic,
	})
	if err != nil {
		return Estimate{}, err
	}
	m := len(sk.Nodes)
	if m <= 2 {
		// Degenerate skeleton: solve G directly by broadcast.
		return BruteForce(clq, g), nil
	}

	// Step 3: Theorem 8.1 on G_S inside a subclique. The child bandwidth is
	// the largest for which one simulated round fits in O(1) parent rounds:
	// m·bw ≤ n·(parent bw) (Lemma 2.1 simulation).
	childBW := clq.Bandwidth() * n / m
	if childBW < 1 {
		childBW = 1
	}
	if err := cfg.Checkpoint(clq, "theorem11/thm81-on-skeleton"); err != nil {
		return Estimate{}, err
	}
	child, finish := clq.Subclique(m, childBW)
	gsEst, err := LargeBandwidthAPSP(child, sk.GS, cfg)
	finish()
	if err != nil {
		return Estimate{}, err
	}

	// Step 4: translate.
	if err := cfg.Checkpoint(clq, "theorem11/translate"); err != nil {
		return Estimate{}, err
	}
	eta, err := sk.Translate(clq, gsEst.D)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{D: eta, Factor: skeleton.TranslationFactor(gsEst.Factor, 1)}, nil
}

// Tradeoff implements Theorem 1.2: for t ≥ 1, an O(log^{2^-t} n)-
// approximation in O(t) rounds, by running the Theorem 1.1 pipeline with the
// inner small-diameter solvers limited to t+1 reduction iterations
// (Lemma 8.3) instead of their full schedule.
func Tradeoff(clq *cc.Clique, g *graph.Graph, t int, cfg Config) (Estimate, error) {
	if t < 1 {
		t = 1
	}
	cfg = cfg.withDefaults()
	cfg.MaxReduceIters = t + 1
	return APSP(clq, g, cfg)
}

// GeneralPaperFactor is the proven Theorem 1.1 factor 7⁴·(1+ε)².
func GeneralPaperFactor(eps float64) float64 {
	return 2401 * (1 + eps) * (1 + eps)
}

// TradeoffPaperFactor is the shape of the Theorem 1.2 guarantee,
// O(log^{2^-t} n), with the constant from composing Lemma 8.3's bound
// (7·7·(1+ε)²·b² for b = O(log^{2^{-t-1}} n)); used by the experiment
// harness to draw the proven frontier.
func TradeoffPaperFactor(n, t int, eps float64) float64 {
	b := math.Pow(log2(n), math.Pow(2, -float64(t)))
	return 49 * (1 + eps) * (1 + eps) * b
}
