package cliqueapsp

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
)

func TestRunAllAlgorithmsSoundness(t *testing.T) {
	g := RandomGraph(64, 30, 7)
	for _, alg := range Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			res, err := New().Run(context.Background(), g, WithAlgorithm(alg), WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("violations: %v", res.Violations)
			}
			q, err := Evaluate(g, res.Distances)
			if err != nil {
				t.Fatal(err)
			}
			if q.Underruns != 0 {
				t.Fatalf("%d underruns", q.Underruns)
			}
			if q.MaxRatio > res.FactorBound+1e-9 {
				t.Fatalf("max ratio %.3f exceeds proven bound %.3f", q.MaxRatio, res.FactorBound)
			}
			if res.Rounds < 1 {
				t.Fatal("no rounds charged")
			}
			if res.Algorithm != alg {
				t.Fatalf("result algorithm %q, want %q", res.Algorithm, alg)
			}
		})
	}
}

// TestMultigraphModelCharge runs every builtin on 400 seeded five-node
// multigraphs (9–11 edges over 10 possible pairs, so parallel edges are the
// rule; weights 1–5). Each run must stay inside the model — no load-budget
// violation — and within its proven bound: D ≤ D̃ ≤ FactorBound·D.
func TestMultigraphModelCharge(t *testing.T) {
	const n = 5
	eng := New()
	violating := map[Algorithm]int{}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph(n)
		for m := 9 + rng.Intn(3); m > 0; m-- {
			u, v := rng.Intn(n), rng.Intn(n-1)
			if v >= u {
				v++
			}
			mustAdd(t, g, u, v, 1+rng.Int63n(5))
		}
		exact := Exact(g)
		for _, alg := range goldenAlgorithms {
			res, err := eng.Run(context.Background(), g, WithAlgorithm(alg), WithSeed(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", alg, seed, err)
			}
			if len(res.Violations) > 0 {
				if violating[alg]++; violating[alg] == 1 {
					t.Errorf("%s seed %d: %d violations, first %q", alg, seed, len(res.Violations), res.Violations[0])
				}
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					d, est := exact.At(u, v), res.Distances.At(u, v)
					if est < d || (d < Inf && float64(est) > res.FactorBound*float64(d)) {
						t.Fatalf("%s seed %d: D̃(%d,%d) = %d outside [D, %g·D] for D = %d", alg, seed, u, v, est, res.FactorBound, d)
					}
				}
			}
		}
	}
	for alg, c := range violating {
		t.Errorf("%s: %d of 400 runs violated the model", alg, c)
	}
}

func TestRunExactIsExact(t *testing.T) {
	g := RandomGraph(40, 20, 1)
	res, err := New().Run(context.Background(), g, WithAlgorithm(AlgExact))
	if err != nil {
		t.Fatal(err)
	}
	exact := Exact(g)
	for u := 0; u < exact.N(); u++ {
		for v := 0; v < exact.N(); v++ {
			if res.Distances.At(u, v) != exact.At(u, v) {
				t.Fatalf("exact mismatch at (%d,%d)", u, v)
			}
		}
	}
	if res.FactorBound != 1 {
		t.Fatalf("factor = %v, want 1", res.FactorBound)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	g := RandomGraph(48, 25, 2)
	r1, err := New().Run(context.Background(), g, WithAlgorithm(AlgConstant), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New().Run(context.Background(), g, WithAlgorithm(AlgConstant), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rounds != r2.Rounds || r1.Messages != r2.Messages {
		t.Fatalf("nondeterministic accounting: %v vs %v", r1.Rounds, r2.Rounds)
	}
	assertSameDistances(t, r1.Distances, r2.Distances)
}

func TestRunZeroWeightsTransparent(t *testing.T) {
	g, err := Generate("zeroclusters", 48, 1, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Run(context.Background(), g, WithAlgorithm(AlgConstant), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Evaluate(g, res.Distances)
	if err != nil {
		t.Fatal(err)
	}
	if q.Underruns != 0 || q.MaxRatio > res.FactorBound {
		t.Fatalf("quality %+v vs bound %v", q, res.FactorBound)
	}
}

func TestRunTradeoffParameter(t *testing.T) {
	g := RandomGraph(64, 30, 3)
	for _, tt := range []int{1, 2, 3} {
		res, err := New().Run(context.Background(), g, WithAlgorithm(AlgTradeoff), WithT(tt), WithSeed(1))
		if err != nil {
			t.Fatalf("t=%d: %v", tt, err)
		}
		q, err := Evaluate(g, res.Distances)
		if err != nil {
			t.Fatal(err)
		}
		if q.MaxRatio > res.FactorBound+1e-9 {
			t.Fatalf("t=%d: ratio %.3f exceeds bound %.3f", tt, q.MaxRatio, res.FactorBound)
		}
	}
}

func TestGraphValidation(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Fatal("out of range accepted")
	}
	if err := g.AddEdge(0, 1, -2); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := g.AddEdge(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.N() != 3 {
		t.Fatalf("N=%d edges=%d", g.N(), g.NumEdges())
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	g := RandomGraph(10, 5, 1)
	if _, err := New().Run(context.Background(), g, WithAlgorithm("nope")); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunNilGraph(t *testing.T) {
	if _, err := New().Run(context.Background(), nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestGenerateAllNames(t *testing.T) {
	for _, name := range Generators() {
		g, err := Generate(name, 32, 1, 9, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() < 32 {
			t.Fatalf("%s: %d nodes", name, g.N())
		}
	}
	if _, err := Generate("bogus", 10, 1, 5, 1); err == nil {
		t.Fatal("bogus generator accepted")
	}
}

func TestEvaluateValidation(t *testing.T) {
	g := RandomGraph(8, 5, 1)
	if _, err := Evaluate(g, nil); err == nil {
		t.Fatal("nil distances accepted")
	}
	small, err := DistancesFromSlices([][]int64{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(g, small); err == nil {
		t.Fatal("wrong dimension accepted")
	}
}

func TestDistancesFromSlicesValidation(t *testing.T) {
	if _, err := DistancesFromSlices(nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := DistancesFromSlices([][]int64{{0, 1}, {1}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestResultPhasesPopulated(t *testing.T) {
	g := RandomGraph(48, 20, 6)
	res, err := New().Run(context.Background(), g, WithAlgorithm(AlgConstant), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, p := range res.Phases {
		names[p.Name] = true
	}
	for _, want := range []string{"theorem11/knearest", "theorem11/skeleton"} {
		if !names[want] {
			t.Fatalf("phase %q missing from %v", want, res.Phases)
		}
	}
}

func TestRunDeterministicModeSeedIndependent(t *testing.T) {
	g := RandomGraph(64, 30, 21)
	r1, err := New().Run(context.Background(), g, WithAlgorithm(AlgConstant), WithSeed(1), WithDeterministicRun(true))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New().Run(context.Background(), g, WithAlgorithm(AlgConstant), WithSeed(999), WithDeterministicRun(true))
	if err != nil {
		t.Fatal(err)
	}
	assertSameDistances(t, r1.Distances, r2.Distances)
	if r1.Rounds != r2.Rounds {
		t.Fatalf("deterministic rounds differ: %d vs %d", r1.Rounds, r2.Rounds)
	}
	q, err := Evaluate(g, r1.Distances)
	if err != nil {
		t.Fatal(err)
	}
	if q.Underruns != 0 || q.MaxRatio > r1.FactorBound+1e-9 {
		t.Fatalf("deterministic quality %+v vs bound %v", q, r1.FactorBound)
	}
}

func TestPublicGraphIORoundTrip(t *testing.T) {
	g := RandomGraph(32, 20, 8)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: n=%d m=%d", got.N(), got.NumEdges())
	}
	assertSameDistances(t, Exact(g), Exact(got))
}

func TestReadGraphRejectsDirected(t *testing.T) {
	input := "c cliqueapsp directed graph\np 3 1\ne 0 1 5\n"
	if _, err := ReadGraph(strings.NewReader(input)); err == nil {
		t.Fatal("directed graph accepted")
	}
}

func assertSameDistances(t *testing.T, a, b *DistanceMatrix) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("dimension mismatch: %d vs %d", a.N(), b.N())
	}
	for u := 0; u < a.N(); u++ {
		for v := 0; v < a.N(); v++ {
			if a.At(u, v) != b.At(u, v) {
				t.Fatalf("distances differ at (%d,%d): %d vs %d", u, v, a.At(u, v), b.At(u, v))
			}
		}
	}
}
