package core

import (
	"math"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
	"github.com/congestedclique/cliqueapsp/internal/spanner"
)

// spannerConstructionRounds is the round charge for constructing a spanner,
// per the O(1)-round algorithms of Chechik–Zhang (Lemma 7.1 / [CZ22]); the
// spanner itself is produced by the greedy construction, which meets or
// beats the CZ22 stretch/size guarantees (see package spanner).
const spannerConstructionRounds = 8

// LogApprox implements Corollary 7.2: an O(log n)-approximation of APSP in
// O(1) rounds, by constructing a (2b−1)-spanner with b ≈ (α/3)·log n —
// giving O(n^{1+1/b}) ⊆ O(n) edges asymptotically — broadcasting it, and
// letting every node compute the spanner's APSP locally (simulated by the
// distance matrix spanner.Greedy keeps as it grows the spanner). The output
// is known to all nodes. This is also the CZ22 baseline of the benchmarks.
func LogApprox(clq *cc.Clique, g *graph.Graph, cfg Config) (Estimate, error) {
	if err := validateInput(g); err != nil {
		return Estimate{}, err
	}
	b := clampInt(int(log2(g.N())/3), 2, g.N())
	return spannerApprox(clq, g, b)
}

// spannerApprox computes a (2b−1)-approximation of APSP on g by spanner
// broadcast (the engine of Corollaries 7.1 and 7.2): build, broadcast
// (3 words per edge), clamp at the cap if present. The spanner's APSP that
// every node would recompute locally is the matrix Greedy returns with it.
func spannerApprox(clq *cc.Clique, g *graph.Graph, b int) (Estimate, error) {
	sp, d := spanner.Greedy(g, b)
	clq.ChargeRounds(spannerConstructionRounds)
	clq.Broadcast(int64(3*sp.NumEdges()), "spanner broadcast")
	if g.Cap() > 0 {
		d.Clamp(g.Cap())
		d.SetDiagZero()
	}
	return Estimate{D: d, Factor: float64(2*b - 1)}, nil
}

// checkpointedBruteForce is a pipeline's up-front BruteForce on a graph too
// small for its stages, charged to a phase of its own rather than to
// whatever phase (often "init") was current.
func checkpointedBruteForce(clq *cc.Clique, g *graph.Graph, cfg Config, phase string) (Estimate, error) {
	if err := cfg.Checkpoint(clq, phase); err != nil {
		return Estimate{}, err
	}
	return BruteForce(clq, g), nil
}

// BruteForce broadcasts the whole graph (3 words per edge) and lets every
// node compute exact APSP locally. It is the paper's "solve by brute force
// in O(1) rounds" fallback for degenerate parameter regimes, and is exact.
func BruteForce(clq *cc.Clique, g *graph.Graph) Estimate {
	clq.Broadcast(int64(3*g.NumEdges()), "full graph broadcast")
	return Estimate{D: g.ExactAPSP(), Factor: 1}
}

// ExactCliqueAPSP is the algebraic exact baseline: repeated distance-product
// squaring of the weighted adjacency matrix, charging ⌈n^{1/3}⌉ rounds per
// product per the CKK+19 semiring matrix multiplication algorithm. It is
// exact and needs Θ(log n) products, so its round cost grows polynomially
// with n — the contrast row in the benchmark tables. The squaring runs on
// cfg.Par, so a cancelled run aborts mid-product.
func ExactCliqueAPSP(clq *cc.Clique, g *graph.Graph, cfg Config) (Estimate, error) {
	n := g.N()
	a := minplus.NewDense(n)
	a.SetDiagZero()
	for u := 0; u < n; u++ {
		for _, arc := range g.Out(u) {
			if arc.W < a.At(u, arc.To) {
				a.Set(u, arc.To, arc.W)
			}
		}
	}
	if g.Cap() > 0 {
		a.Clamp(g.Cap())
		a.SetDiagZero()
	}
	fix, squarings, err := a.PowerFixpointCtx(cfg.Par, 2*n)
	if err != nil {
		return Estimate{}, err
	}
	if squarings < 1 {
		squarings = 1
	}
	clq.ChargeRounds(int64(squarings) * minplus.DenseMatMulRounds(n))
	return Estimate{D: fix, Factor: 1}, nil
}

// MeasureQuality compares an estimate against exact distances, returning the
// maximum and mean ratio over connected pairs and the number of pairs where
// the estimate undercuts the true distance (must be zero for sound
// algorithms).
func MeasureQuality(est *minplus.Dense, exact *minplus.Dense) (maxRatio, meanRatio float64, underruns int) {
	n := exact.N()
	var sum float64
	var count int
	maxRatio = 1
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			d := exact.At(u, v)
			if minplus.IsInf(d) {
				continue
			}
			e := est.At(u, v)
			if e < d {
				underruns++
				continue
			}
			r := 1.0
			if d > 0 {
				r = float64(e) / float64(d)
			} else if e > 0 {
				r = math.Inf(1)
			}
			if r > maxRatio {
				maxRatio = r
			}
			sum += r
			count++
		}
	}
	if count > 0 {
		meanRatio = sum / float64(count)
	}
	return maxRatio, meanRatio, underruns
}
