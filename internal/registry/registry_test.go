package registry

import (
	"math/rand"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/core"
	"github.com/congestedclique/cliqueapsp/internal/graph"
)

func TestBuiltinsRegistered(t *testing.T) {
	for _, name := range []string{Constant, Tradeoff, SmallDiameter, LargeBandwidth, LogApprox, Exact} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("builtin %q not registered", name)
		}
		if spec.Summary == "" || spec.FactorBound == "" || spec.RoundClass == "" {
			t.Fatalf("builtin %q has incomplete metadata: %+v", name, spec)
		}
		if spec.Run == nil {
			t.Fatalf("builtin %q has no runner", name)
		}
	}
	names := Names()
	if len(names) < 6 || names[0] != Constant {
		t.Fatalf("registration order broken: %v", names)
	}
}

func TestRegisterValidation(t *testing.T) {
	noop := func(clq *cc.Clique, g *graph.Graph, cfg core.Config, p Params) (core.Estimate, error) {
		return core.Estimate{}, nil
	}
	if err := Register(Spec{Name: "", Run: noop}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register(Spec{Name: "x"}); err == nil {
		t.Fatal("nil runner accepted")
	}
	if err := Register(Spec{Name: Constant, Run: noop}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := Register(Spec{Name: "registry-test-ok", Run: noop}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { Unregister("registry-test-ok") })
	if _, ok := Lookup("registry-test-ok"); !ok {
		t.Fatal("registered spec not found")
	}
}

func TestBandwidthFor(t *testing.T) {
	std, _ := Lookup(Constant)
	if bw := std.BandwidthFor(256, 0); bw != 1 {
		t.Fatalf("standard default bandwidth = %d, want 1", bw)
	}
	if bw := std.BandwidthFor(256, 7); bw != 7 {
		t.Fatalf("override ignored: %d", bw)
	}
	big, _ := Lookup(LargeBandwidth)
	if bw := big.BandwidthFor(256, 0); bw != 512 { // ⌈log₂³256⌉ = 8³
		t.Fatalf("log⁴ model bandwidth = %d, want 512", bw)
	}
}

func TestBuiltinRunnersProduceSoundEstimates(t *testing.T) {
	g := graph.RandomConnected(48, 4, graph.WeightRange{Min: 1, Max: 20}, rand.New(rand.NewSource(1)))
	exact := g.ExactAPSP()
	for _, spec := range All() {
		spec := spec
		if spec.Name == "registry-test-ok" { // registered by another test; no real runner
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			clq := cc.New(g.N(), spec.BandwidthFor(g.N(), 0))
			cfg := core.Config{Eps: 0.1, Rng: rand.New(rand.NewSource(2))}
			est, err := spec.Run(clq, g, cfg, Params{T: 1})
			if err != nil {
				t.Fatal(err)
			}
			maxR, _, under := core.MeasureQuality(est.D, exact)
			if under != 0 {
				t.Fatalf("%d underruns", under)
			}
			if maxR > est.Factor+1e-9 {
				t.Fatalf("measured %.3f exceeds proven %.3f", maxR, est.Factor)
			}
		})
	}
}
