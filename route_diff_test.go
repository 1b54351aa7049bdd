package cliqueapsp_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
	"github.com/congestedclique/cliqueapsp/tier"
)

// TestPathMatchesNextHopReference routes pairs of every golden-sweep run
// and of every generator plus a disconnected graph (under the constant and
// logapprox algorithms) through a hot and a cold oracle tenant, and requires each Path — route,
// cost, reachability and ErrNoRoute — to equal the next-hop walk the oracle
// used before it routed from the destination's row (route_reference_test.go),
// fed by the resident matrix and by the tenant's snapshot file respectively.
// Runs with n ≤ 64 route every pair; larger ones 2,048 random pairs.
func TestPathMatchesNextHopReference(t *testing.T) {
	type run struct {
		name string
		g    *cliqueapsp.Graph
		alg  cliqueapsp.Algorithm
		seed int64
		res  *cliqueapsp.Result // nil: run the algorithm here
	}
	golden, err := cliqueapsp.GoldenRuns()
	if err != nil {
		t.Fatal(err)
	}
	var runs []run
	for _, r := range golden {
		runs = append(runs, run{fmt.Sprintf("%s/n=%d/seed=%d", r.Alg, r.Graph.N(), r.Seed), r.Graph, r.Alg, r.Seed, r.Result})
	}
	for _, gen := range cliqueapsp.Generators() {
		for _, alg := range []cliqueapsp.Algorithm{cliqueapsp.AlgConstant, cliqueapsp.AlgLogApprox} {
			g, err := cliqueapsp.Generate(gen, 48, 1, 30, 5)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{fmt.Sprintf("%s/%s/n=48", alg, gen), g, alg, 5, nil})
		}
	}
	// Every generator's graph is connected, so add one that is not: a
	// random graph on nodes 0..31 beside a path on 32..39.
	split := cliqueapsp.NewGraph(40)
	for _, e := range cliqueapsp.RandomGraph(32, 30, 9).Edges() {
		if err := split.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	for u := 32; u < 39; u++ {
		if err := split.AddEdge(u, u+1, 4); err != nil {
			t.Fatal(err)
		}
	}
	for _, alg := range []cliqueapsp.Algorithm{cliqueapsp.AlgConstant, cliqueapsp.AlgLogApprox} {
		runs = append(runs, run{fmt.Sprintf("%s/split/n=40", alg), split, alg, 9, nil})
	}

	var delivered, noRoute, unreachable int
	eng := cliqueapsp.New()
	for _, r := range runs {
		res := r.res
		if res == nil {
			if res, err = eng.Run(context.Background(), r.g, cliqueapsp.WithAlgorithm(r.alg), cliqueapsp.WithSeed(r.seed)); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		}
		dir, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := dir.Save("g", &store.Snapshot{Version: 1, Algorithm: string(r.alg), FactorBound: res.FactorBound,
			Seed: r.seed, Engine: cliqueapsp.EngineVersion, Graph: r.g, Distances: res.Distances}); err != nil {
			t.Fatal(err)
		}
		cold := tier.NewStore(dir)
		reader, err := cold.OpenCold("g", 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		hotM := oracle.NewManager(oracle.ManagerConfig{Store: dir})
		coldM := oracle.NewManager(oracle.ManagerConfig{Store: dir, Cold: cold, ColdCacheRows: 8, MaxTotalNodes: 8})
		sides := []struct {
			name string
			m    *oracle.Manager
			ref  *cliqueapsp.NextHopReference
		}{
			{"hot", hotM, cliqueapsp.NewNextHopReference(r.g, func(x int) ([]int64, error) { return res.Distances.Row(x), nil })},
			{"cold", coldM, cliqueapsp.NewNextHopReference(r.g, reader.Row)},
		}
		n := r.g.N()
		var pairs []oracle.Pair
		if n <= 64 {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					pairs = append(pairs, oracle.Pair{U: u, V: v})
				}
			}
		} else {
			rng := rand.New(rand.NewSource(r.seed))
			for i := 0; i < 2048; i++ {
				pairs = append(pairs, oracle.Pair{U: rng.Intn(n), V: rng.Intn(n)})
			}
		}
		for _, side := range sides {
			tn, err := side.m.Get("g")
			if err != nil {
				t.Fatalf("%s %s: %v", r.name, side.name, err)
			}
			if tier := tn.Stats().Tier; tier != side.name {
				t.Fatalf("%s: tenant serves %s, want %s", r.name, tier, side.name)
			}
			for _, p := range pairs {
				got, err := tn.Path(p.U, p.V)
				path, cost, reachable, refErr := side.ref.Path(p.U, p.V)
				switch {
				case refErr != nil:
					if !errors.Is(refErr, cliqueapsp.ErrNoRoute) {
						t.Fatalf("%s %s: reference Path(%d,%d): %v", r.name, side.name, p.U, p.V, refErr)
					}
					if !errors.Is(err, cliqueapsp.ErrNoRoute) || !strings.HasSuffix(err.Error(), refErr.Error()) || got.Reachable {
						t.Fatalf("%s %s: Path(%d,%d) = %+v, %v; reference fails with %v",
							r.name, side.name, p.U, p.V, got, err, refErr)
					}
					noRoute++
				case err != nil || got.Reachable != reachable || !reflect.DeepEqual(got.Path, path) || (reachable && got.Cost != cost):
					t.Fatalf("%s %s: Path(%d,%d) = %+v, %v; reference %v, cost %d, reachable %v",
						r.name, side.name, p.U, p.V, got, err, path, cost, reachable)
				case reachable:
					delivered++
				default:
					unreachable++
				}
			}
		}
		hotM.Close()
		coldM.Close()
		reader.Close()
	}
	t.Logf("%d runs: %d routes delivered, %d ErrNoRoute, %d unreachable", len(runs), delivered, noRoute, unreachable)
	if delivered == 0 || noRoute == 0 || unreachable == 0 {
		t.Fatalf("outcomes delivered=%d no-route=%d unreachable=%d: want each > 0", delivered, noRoute, unreachable)
	}
}
