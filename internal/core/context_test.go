package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
)

func ctxConfig(ctx context.Context, progress func(string)) Config {
	return Config{Eps: 0.1, Rng: rand.New(rand.NewSource(1)), Ctx: ctx, Progress: progress}
}

func TestCheckpointFiresProgressThenChecksContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var seen []string
	cfg := ctxConfig(ctx, func(phase string) { seen = append(seen, phase) })
	clq := cc.New(4, 1)
	if err := cfg.Checkpoint(clq, "alpha"); err != nil {
		t.Fatal(err)
	}
	clq.ChargeRounds(2)
	cancel()
	if err := cfg.Checkpoint(clq, "beta"); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	clq.ChargeRounds(3)
	if len(seen) != 2 || seen[0] != "alpha" || seen[1] != "beta" {
		t.Fatalf("progress events %v", seen)
	}
	// Each checkpoint also switched the accounting phase to its name.
	m := clq.Metrics()
	if a, _ := m.PhaseByName("alpha"); a.Rounds != 2 {
		t.Fatalf("alpha phase = %+v, want 2 rounds", a)
	}
	if b, _ := m.PhaseByName("beta"); b.Rounds != 3 {
		t.Fatalf("beta phase = %+v, want 3 rounds", b)
	}
	// Nil context and nil progress are both fine.
	if err := (Config{}).Checkpoint(clq, "gamma"); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinesAbortBetweenPhasesOnCancel(t *testing.T) {
	g := graph.RandomConnected(64, 4, graph.WeightRange{Min: 1, Max: 20}, rand.New(rand.NewSource(3)))
	type pipeline struct {
		name string
		run  func(clq *cc.Clique, cfg Config) (Estimate, error)
	}
	pipelines := []pipeline{
		{"apsp", func(clq *cc.Clique, cfg Config) (Estimate, error) { return APSP(clq, g, cfg) }},
		{"smalldiam", func(clq *cc.Clique, cfg Config) (Estimate, error) {
			return SmallDiameterAPSP(clq, g, cfg, false)
		}},
		{"largebw", func(clq *cc.Clique, cfg Config) (Estimate, error) { return LargeBandwidthAPSP(clq, g, cfg) }},
	}
	for _, p := range pipelines {
		p := p
		t.Run(p.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			fired := 0
			cfg := ctxConfig(ctx, func(string) {
				fired++
				cancel()
			})
			clq := cc.New(g.N(), 1)
			_, err := p.run(clq, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, want context.Canceled", err)
			}
			if fired != 1 {
				t.Fatalf("pipeline kept running after cancellation: %d phase events", fired)
			}
		})
	}
}

func TestZeroWeightsCheckpoint(t *testing.T) {
	g, _ := graph.ZeroClusters(48, 6, graph.WeightRange{Min: 1, Max: 20}, rand.New(rand.NewSource(5)))
	ctx, cancel := context.WithCancel(context.Background())
	cfg := ctxConfig(ctx, func(string) { cancel() })
	clq := cc.New(g.N(), 1)
	_, err := WithZeroWeights(clq, g, cfg, APSP)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}
