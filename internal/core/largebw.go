package core

import (
	"fmt"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/hopset"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
	"github.com/congestedclique/cliqueapsp/internal/scaling"
	"github.com/congestedclique/cliqueapsp/internal/skeleton"
)

// LargeBandwidthAPSP implements Theorem 8.1: a (7³+ε)-approximation of APSP
// in the Congested-Clique[log⁴n] model (clq should carry ≈log³n words of
// bandwidth). Pipeline (§8.2):
//
//  1. LogApprox bootstrap;
//  2. √n-nearest β-hopset, β ∈ O(a·log d) (Lemma 3.2), with G∪H
//     symmetrized;
//  3. weight-scaling family with h = β (Lemma 8.1);
//  4. Theorem 7.1 on every distinct scaled graph, run in parallel bandwidth
//     lanes, each in its big-bandwidth (7-approximation) regime;
//  5. recombination into an estimate exact enough on √n-nearest sets;
//  6. full skeleton graph (Lemma 6.1) with a = (1+ε)·l, exact APSP on G_S
//     by broadcast, and translation.
//
// With cfg.MaxReduceIters > 0 the inner Theorem 7.1 instances run their
// round-limited variant, which yields Lemma 8.3 (the tradeoff engine).
func LargeBandwidthAPSP(clq *cc.Clique, g *graph.Graph, cfg Config) (Estimate, error) {
	if err := validateInput(g); err != nil {
		return Estimate{}, err
	}
	cfg = cfg.withDefaults()
	n := g.N()
	if n <= 4 {
		return checkpointedBruteForce(clq, g, cfg, "largebw/bruteforce")
	}
	if err := cfg.Checkpoint(clq, "largebw/bootstrap"); err != nil {
		return Estimate{}, err
	}

	// Step 1: bootstrap.
	est, err := LogApprox(clq, g, cfg)
	if err != nil {
		return Estimate{}, err
	}

	// Step 2: hopset and symmetrized union.
	if err := cfg.Checkpoint(clq, "largebw/hopset"); err != nil {
		return Estimate{}, err
	}
	k := intSqrt(n)
	h, err := hopset.Build(clq, g.AsDirected(), est.D, k)
	if err != nil {
		return Estimate{}, err
	}
	gu := graph.UndirectedUnion(g, h)
	beta := hopset.HopBound(est.Factor, diameterBound(g, est.D))

	// Step 3: the weight-scaling family. The estimate is an
	// est.Factor-approximation and est.Factor ≤ β, as Lemma 8.1 requires of
	// its h-approximation.
	sc, err := scaling.Build(gu, beta, cfg.Eps, est.D)
	if err != nil {
		return Estimate{}, err
	}

	// Step 4: Theorem 7.1 on each distinct scaled graph, in parallel lanes
	// that share the parent's bandwidth. Lane bandwidth is the parent's
	// share; real loads determine the (max-combined) round charge.
	if err := cfg.Checkpoint(clq, "largebw/scaled-instances"); err != nil {
		return Estimate{}, err
	}
	lanes := len(sc.Graphs)
	laneBW := clq.Bandwidth() / lanes
	if laneBW < 1 {
		laneBW = 1
	}
	perGraph := make([]*Estimate, lanes)
	innerFactor := 1.0
	var innerErr error
	clq.Parallel(lanes, laneBW, "scaled-instances", func(lane int, child *cc.Clique) {
		e, err := SmallDiameterAPSP(child, sc.Graphs[lane], cfg, true)
		if err != nil {
			innerErr = fmt.Errorf("scaled instance %d: %w", lane, err)
			return
		}
		perGraph[lane] = &e
		if e.Factor > innerFactor {
			innerFactor = e.Factor
		}
	})
	if innerErr != nil {
		return Estimate{}, innerErr
	}

	// Step 5: zero-round recombination (Lemma 8.1). The result dominates
	// true distances everywhere and is a (1+ε)·l approximation on every
	// pair within β hops of G∪H — in particular on every (u, N_√n(u)) pair.
	mats := make([]*minplus.Dense, len(perGraph))
	for i, e := range perGraph {
		mats[i] = e.D
	}
	etaCombined, err := sc.Combine(est.D, mats)
	if err != nil {
		return Estimate{}, err
	}
	aList := sc.CombinedFactor(innerFactor)

	// Step 6: full-version skeleton from the recombined estimate.
	if err := cfg.Checkpoint(clq, "largebw/skeleton"); err != nil {
		return Estimate{}, err
	}
	lists := skeleton.ListsFromEstimate(etaCombined, k)
	sk, err := skeleton.Build(clq, skeleton.Input{
		G: g, K: k, A: aList, Lists: lists, Rng: cfg.Rng, Deterministic: cfg.Deterministic,
	})
	if err != nil {
		return Estimate{}, err
	}
	gsEst := BruteForce(clq, sk.GS) // broadcast all G_S edges; l = 1
	eta, err := sk.Translate(clq, gsEst.D)
	if err != nil {
		return Estimate{}, err
	}
	out := Estimate{D: eta, Factor: skeleton.TranslationFactor(1, aList)}
	return minCombine(est, out), nil
}

// LargeBandwidthPaperFactor is the proven Theorem 8.1 factor 7³·(1+ε)².
func LargeBandwidthPaperFactor(eps float64) float64 {
	return 343 * (1 + eps) * (1 + eps)
}
