// Package core implements the paper's APSP approximation pipelines on top of
// the substrate packages:
//
//   - LogApprox           — Corollary 7.2: the O(log n)-approximation
//     bootstrap via spanner broadcast (the CZ22 baseline).
//   - ReduceApprox        — Lemma 3.1: one approximation-factor reduction
//     step (a → 15√a) in O(1) rounds.
//   - SmallDiameterAPSP   — Theorem 7.1: O(1)-approximation for graphs of
//     small weighted diameter (and its round-limited variant, Lemma 8.2).
//   - LargeBandwidthAPSP  — Theorem 8.1: (7³+ε)-approximation in the
//     Congested-Clique[log⁴n] model via weight scaling (and Lemma 8.3).
//   - APSP                — Theorem 1.1: (7⁴+ε)-approximation in the
//     standard model, and Tradeoff — Theorem 1.2: O(t) rounds for an
//     O(log^{2^-t} n)-approximation.
//   - WithZeroWeights     — Theorem 2.1: the nonnegative-weight reduction.
//   - ExactCliqueAPSP     — the algebraic exact baseline (distance-product
//     squaring, Õ(n^{1/3}) rounds per product per CKK+19).
//
// Every pipeline returns an Estimate carrying both the distance matrix and
// the *proven* approximation factor composed from the stages actually run;
// tests assert that measured ratios never exceed the proven factor.
//
// Parameter regime: the paper's asymptotic parameter choices degenerate at
// laptop-scale n (log⁴n > n for n ≤ 4096). Params centralizes the paper
// formulas together with their documented clamps; see DESIGN.md §1.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/knearest"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
	"github.com/congestedclique/cliqueapsp/internal/sched"
)

// Estimate is a distance estimate together with its proven guarantee.
type Estimate struct {
	// D is the symmetric estimate matrix; row u is node u's knowledge.
	// Every entry dominates the true distance.
	D *minplus.Dense
	// Factor is the proven approximation factor: d ≤ D ≤ Factor·d for all
	// connected pairs (w.h.p. for the randomized pipelines).
	Factor float64
}

// Config carries the tunables shared by the pipelines.
type Config struct {
	// Eps is the accuracy slack used by the weight-scaling stages (>0).
	Eps float64
	// Rng drives all randomized components. Required.
	Rng *rand.Rand
	// MaxReduceIters, when positive, limits the number of Lemma 3.1
	// applications (the Theorem 1.2 / Lemma 8.2 round-limited regime) and
	// skips the final small-diameter stage.
	MaxReduceIters int
	// Deterministic replaces the randomized hitting sets with the greedy
	// deterministic construction; every other pipeline stage (hopset,
	// k-nearest, greedy spanners, scaling) is already deterministic, so the
	// whole run becomes deterministic. Costs O(k) extra rounds per skeleton
	// construction; see the skeleton package.
	Deterministic bool
	// Ctx, when non-nil, is polled at phase boundaries: a cancelled or
	// expired context aborts the pipeline between phases with Ctx.Err().
	Ctx context.Context
	// Progress, when non-nil, is invoked with the phase name at every phase
	// boundary, before the cancellation check. It must be safe for the
	// caller's use; pipelines call it synchronously.
	Progress func(phase string)
	// Par is the compute group the pipelines hand to the min-plus kernels
	// and the k-nearest combo nodes: it bounds their parallelism and
	// carries the run's context into them, so a cancelled run aborts
	// mid-phase instead of at the next phase boundary. Nil falls back to
	// the shared pool at full width.
	Par *sched.Group

	// knearest is the run's k-nearest workspace: every knearest.Compute of
	// the run reuses its buffers. withDefaults makes it, so it lives as long
	// as the run's Config and is dropped with it. The pipelines of a run
	// call Compute one at a time (cc.Parallel runs its lanes in sequence),
	// so two goroutines never use it at once outside Compute's own fan-out.
	knearest *knearest.Workspace
}

// Checkpoint marks a phase boundary: it switches clq's accounting to phase,
// fires Progress, and returns the context's error if the run is cancelled.
// It is how pipelines name phases, for the model cost and Progress alike.
func (c Config) Checkpoint(clq *cc.Clique, phase string) error {
	clq.Phase(phase)
	if c.Progress != nil {
		c.Progress(phase)
	}
	if c.Ctx != nil {
		if err := c.Ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Eps <= 0 {
		c.Eps = 0.1
	}
	if c.Rng == nil {
		c.Rng = rand.New(rand.NewSource(1))
	}
	if c.knearest == nil {
		c.knearest = new(knearest.Workspace)
	}
	return c
}

// minCombine folds a new estimate into an existing one by pointwise minimum.
// Both inputs dominate true distances, so the minimum does too, and it
// satisfies the smaller of the two factors.
func minCombine(a Estimate, b Estimate) Estimate {
	n := a.D.N()
	out := minplus.NewDense(n)
	for u := 0; u < n; u++ {
		ra, rb, ro := a.D.Row(u), b.D.Row(u), out.Row(u)
		for v := 0; v < n; v++ {
			if ra[v] < rb[v] {
				ro[v] = ra[v]
			} else {
				ro[v] = rb[v]
			}
		}
	}
	return Estimate{D: out, Factor: math.Min(a.Factor, b.Factor)}
}

// diameterBound returns an upper bound on the weighted diameter usable for
// hop-bound computations: the cap if the graph has one, otherwise the
// largest finite entry of the (distance-dominating) estimate.
func diameterBound(g *graph.Graph, est *minplus.Dense) int64 {
	if g.Cap() > 0 {
		return g.Cap()
	}
	d := est.MaxFinite()
	if d < 2 {
		d = 2
	}
	return d
}

func validateInput(g *graph.Graph) error {
	if g.Directed() {
		return fmt.Errorf("core: input graph must be undirected")
	}
	if err := g.RequirePositiveWeights(); err != nil {
		return fmt.Errorf("core: %w (use WithZeroWeights for zero-weight graphs)", err)
	}
	return nil
}

func log2(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}

func intSqrt(n int) int {
	k := int(math.Sqrt(float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
