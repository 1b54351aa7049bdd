package registry

import (
	"math"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/core"
	"github.com/congestedclique/cliqueapsp/internal/graph"
)

// Built-in algorithm names: the paper's results plus the baselines they are
// compared against. These are the keys the seed's Algorithm enum carried.
const (
	Constant       = "constant"
	Tradeoff       = "tradeoff"
	SmallDiameter  = "smalldiameter"
	LargeBandwidth = "largebandwidth"
	LogApprox      = "logapprox"
	Exact          = "exact"
)

// log4Bandwidth is the natural bandwidth of the Congested-Clique[log⁴n]
// model: ⌈log₂³n⌉ words per ordered pair per round.
func log4Bandwidth(n int) int {
	l := math.Log2(float64(n))
	bw := int(math.Ceil(l * l * l))
	if bw < 1 {
		bw = 1
	}
	return bw
}

func init() {
	MustRegister(Spec{
		Name:        Constant,
		Summary:     "Theorem 1.1 — constant-factor APSP, the paper's headline result",
		FactorBound: "7⁴·(1+ε)²",
		RoundClass:  "O(log log log n)",
		Bandwidth:   Standard,
		Run: func(clq *cc.Clique, g *graph.Graph, cfg core.Config, _ Params) (core.Estimate, error) {
			return core.APSP(clq, g, cfg)
		},
	})
	MustRegister(Spec{
		Name:        Tradeoff,
		Summary:     "Theorem 1.2 — round/approximation tradeoff, parameter t",
		FactorBound: "O(log^{2^-t} n)",
		RoundClass:  "O(t)",
		Bandwidth:   Standard,
		Run: func(clq *cc.Clique, g *graph.Graph, cfg core.Config, p Params) (core.Estimate, error) {
			return core.Tradeoff(clq, g, p.T, cfg)
		},
	})
	MustRegister(Spec{
		Name:        SmallDiameter,
		Summary:     "Theorem 7.1 — O(1)-approximation for small weighted diameter",
		FactorBound: "21",
		RoundClass:  "O(log log log n)",
		Bandwidth:   Standard,
		Run: func(clq *cc.Clique, g *graph.Graph, cfg core.Config, _ Params) (core.Estimate, error) {
			return core.SmallDiameterAPSP(clq, g, cfg, false)
		},
	})
	MustRegister(Spec{
		Name:             LargeBandwidth,
		Summary:          "Theorem 8.1 — APSP in the Congested-Clique[log⁴n] model",
		FactorBound:      "7³·(1+ε)²",
		RoundClass:       "O(log log log n)",
		Bandwidth:        Polylog,
		DefaultBandwidth: log4Bandwidth,
		Run: func(clq *cc.Clique, g *graph.Graph, cfg core.Config, _ Params) (core.Estimate, error) {
			return core.LargeBandwidthAPSP(clq, g, cfg)
		},
	})
	MustRegister(Spec{
		Name:        LogApprox,
		Summary:     "Corollary 7.2 — CZ22 spanner-broadcast baseline",
		FactorBound: "O(log n)",
		RoundClass:  "O(1)",
		Bandwidth:   Standard,
		Baseline:    true,
		Run: func(clq *cc.Clique, g *graph.Graph, cfg core.Config, _ Params) (core.Estimate, error) {
			if err := cfg.Checkpoint(clq, "logapprox"); err != nil {
				return core.Estimate{}, err
			}
			return core.LogApprox(clq, g, cfg)
		},
	})
	MustRegister(Spec{
		Name:        Exact,
		Summary:     "CKK+19 — exact algebraic baseline by distance-product squaring",
		FactorBound: "1 (exact)",
		RoundClass:  "Õ(n^{1/3})",
		Bandwidth:   Standard,
		Baseline:    true,
		Run: func(clq *cc.Clique, g *graph.Graph, cfg core.Config, _ Params) (core.Estimate, error) {
			if err := cfg.Checkpoint(clq, "exact-squaring"); err != nil {
				return core.Estimate{}, err
			}
			return core.ExactCliqueAPSP(clq, g, cfg)
		},
	})
}
