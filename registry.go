package cliqueapsp

import (
	"context"
	"fmt"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/core"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/registry"
)

// Algorithm names an algorithm in the registry. The built-in names cover
// the paper's results and the baselines they are compared against; more can
// be added with Register.
type Algorithm string

const (
	// AlgConstant is Theorem 1.1: (7⁴+ε)-approximation, O(log log log n)
	// rounds, standard bandwidth. The default.
	AlgConstant Algorithm = registry.Constant
	// AlgTradeoff is Theorem 1.2: O(log^{2^-t} n)-approximation in O(t)
	// rounds; set the parameter with WithT (or Options.T).
	AlgTradeoff Algorithm = registry.Tradeoff
	// AlgSmallDiameter is Theorem 7.1 (21-approximation, standard
	// bandwidth), intended for small-weighted-diameter inputs.
	AlgSmallDiameter Algorithm = registry.SmallDiameter
	// AlgLargeBandwidth is Theorem 8.1: (7³+ε)-approximation in the
	// Congested-Clique[log⁴n] model.
	AlgLargeBandwidth Algorithm = registry.LargeBandwidth
	// AlgLogApprox is the Chechik–Zhang O(log n)-approximation baseline
	// (Corollary 7.2): O(1) rounds via spanner broadcast.
	AlgLogApprox Algorithm = registry.LogApprox
	// AlgExact is the algebraic exact baseline: distance-product squaring at
	// ⌈n^{1/3}⌉ rounds per product (CKK+19).
	AlgExact Algorithm = registry.Exact
)

// AlgorithmInfo is the registry metadata of one algorithm, as rendered by
// `ccapsp -list` and the README's algorithm table.
type AlgorithmInfo struct {
	// Name is the registry key accepted by WithAlgorithm and Options.
	Name Algorithm
	// Summary is a one-line description with the paper reference.
	Summary string
	// FactorBound is the proven approximation bound, human-readable.
	FactorBound string
	// RoundClass is the proven round complexity, human-readable.
	RoundClass string
	// Bandwidth names the bandwidth model the guarantee is stated in.
	Bandwidth string
	// Baseline marks comparison baselines (vs the paper's own results).
	Baseline bool
}

// Algorithms lists the registered algorithm names in registration order
// (built-ins first).
func Algorithms() []Algorithm {
	names := registry.Names()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}

// AlgorithmInfos returns the metadata of every registered algorithm in
// registration order.
func AlgorithmInfos() []AlgorithmInfo {
	specs := registry.All()
	out := make([]AlgorithmInfo, len(specs))
	for i, s := range specs {
		out[i] = AlgorithmInfo{
			Name:        Algorithm(s.Name),
			Summary:     s.Summary,
			FactorBound: s.FactorBound,
			RoundClass:  s.RoundClass,
			Bandwidth:   string(s.Bandwidth),
			Baseline:    s.Baseline,
		}
	}
	return out
}

// RunParams is the per-run parameter bundle passed to an algorithm
// registered with Register.
type RunParams struct {
	// T is the tradeoff parameter from WithT (≥ 1).
	T int
	// Eps is the accuracy slack from WithEps.
	Eps float64
	// Deterministic reports whether the run requested deterministic mode.
	Deterministic bool
}

// AlgorithmOutput is what a registered algorithm returns: its estimate, the
// proven approximation factor of that estimate, and the documented round
// cost to charge against the simulated clique (the algorithm is invoked as
// a black box with a citable round bound, like the paper's own use of
// [Now21] and CKK+19).
type AlgorithmOutput struct {
	// Distances is the estimate; every entry must dominate the true
	// distance. Required, with N matching the input graph. The engine
	// accepts an asymmetric estimate, but the oracle package serves only
	// symmetric ones: its paths read each hop off the destination's row.
	Distances *DistanceMatrix
	// Factor is the proven approximation factor (≥ 1).
	Factor float64
	// Rounds is the documented simulated round cost (≥ 0).
	Rounds int64
}

// AlgorithmSpec registers a new algorithm against the public API surface.
// The runner receives the run's context and parameters and computes the
// estimate centrally, charging its documented round cost through
// AlgorithmOutput.Rounds.
type AlgorithmSpec struct {
	// Summary, FactorBound, RoundClass and Bandwidth are the metadata shown
	// by AlgorithmInfos, `ccapsp -list`, and the registry-driven experiments.
	Summary     string
	FactorBound string
	RoundClass  string
	Bandwidth   string
	// Baseline marks the algorithm as a comparison baseline.
	Baseline bool
	// Run executes the algorithm. Required. It must be pure per (g, p) up to
	// p-independent randomness the implementation seeds itself.
	Run func(ctx context.Context, g *Graph, p RunParams) (AlgorithmOutput, error)
}

// Register adds a custom algorithm under name, making it runnable through
// Engine.Run(ctx, g, WithAlgorithm(name)) and visible to Algorithms,
// AlgorithmInfos, and every registry-driven tool. Registration is global;
// duplicate names and nil runners are rejected.
func Register(name Algorithm, spec AlgorithmSpec) error {
	if spec.Run == nil {
		return fmt.Errorf("cliqueapsp: algorithm %q has no runner", name)
	}
	run := spec.Run
	return registry.Register(registry.Spec{
		Name:        string(name),
		Summary:     spec.Summary,
		FactorBound: spec.FactorBound,
		RoundClass:  spec.RoundClass,
		Bandwidth:   registry.BandwidthModel(spec.Bandwidth),
		Baseline:    spec.Baseline,
		Run: func(clq *cc.Clique, g *graph.Graph, cfg core.Config, p registry.Params) (core.Estimate, error) {
			ctx := cfg.Ctx
			if ctx == nil {
				ctx = context.Background()
			}
			if err := cfg.Checkpoint(clq, string(name)); err != nil {
				return core.Estimate{}, err
			}
			out, err := run(ctx, &Graph{inner: g}, RunParams{
				T: p.T, Eps: cfg.Eps, Deterministic: cfg.Deterministic,
			})
			if err != nil {
				return core.Estimate{}, err
			}
			if out.Distances == nil || out.Distances.N() != g.N() {
				return core.Estimate{}, fmt.Errorf("cliqueapsp: algorithm %q returned a malformed estimate", name)
			}
			if out.Rounds < 0 {
				return core.Estimate{}, fmt.Errorf("cliqueapsp: algorithm %q charged negative rounds %d", name, out.Rounds)
			}
			if out.Factor < 1 {
				out.Factor = 1
			}
			clq.ChargeRounds(out.Rounds)
			return core.Estimate{D: out.Distances.dense(), Factor: out.Factor}, nil
		},
	})
}
