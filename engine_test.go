package cliqueapsp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/congestedclique/cliqueapsp/internal/registry"
)

// One shared Engine must serve many concurrent runs, and pinned seeds must
// reproduce results regardless of interleaving. Run with -race.
func TestEngineConcurrentRunsReproducible(t *testing.T) {
	g := RandomGraph(64, 30, 7)
	eng := New()
	ctx := context.Background()

	// Reference results, computed serially per seed.
	const workers = 8
	want := make([]*Result, workers)
	for i := range want {
		res, err := eng.Run(ctx, g,
			WithAlgorithm(AlgConstant), WithSeed(int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	got := make([]*Result, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Run(ctx, g,
				WithAlgorithm(AlgConstant), WithSeed(int64(100+i)))
			got[i], errs[i] = res, err
		}(i)
	}
	wg.Wait()

	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if got[i].Rounds != want[i].Rounds || got[i].Messages != want[i].Messages {
			t.Fatalf("worker %d: accounting differs under concurrency: %d/%d vs %d/%d",
				i, got[i].Rounds, got[i].Messages, want[i].Rounds, want[i].Messages)
		}
		if got[i].Seed != int64(100+i) {
			t.Fatalf("worker %d: seed %d, want %d", i, got[i].Seed, 100+i)
		}
		assertSameDistances(t, got[i].Distances, want[i].Distances)
	}
}

// Unpinned concurrent runs draw engine-derived seeds that are distinct and
// reproducible: re-running with WithSeed(res.Seed) must replay the run.
func TestEngineDerivedSeedsDistinctAndReplayable(t *testing.T) {
	g := RandomGraph(48, 20, 3)
	eng := New()
	ctx := context.Background()

	const runs = 6
	results := make([]*Result, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Run(ctx, g, WithAlgorithm(AlgConstant))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	seeds := make(map[int64]bool)
	for i, res := range results {
		if res == nil {
			t.Fatal("missing result")
		}
		if seeds[res.Seed] {
			t.Fatalf("run %d: duplicate derived seed %d", i, res.Seed)
		}
		seeds[res.Seed] = true
		replay, err := eng.Run(ctx, g, WithAlgorithm(AlgConstant), WithSeed(res.Seed))
		if err != nil {
			t.Fatal(err)
		}
		assertSameDistances(t, replay.Distances, res.Distances)
	}
}

// A context cancelled mid-run stops the pipeline between phases and
// surfaces ctx.Err().
func TestEngineRunContextCancellation(t *testing.T) {
	g := RandomGraph(64, 30, 5)
	eng := New()
	ctx, cancel := context.WithCancel(context.Background())

	var phases []string
	res, err := eng.Run(ctx, g,
		WithAlgorithm(AlgConstant),
		WithSeed(1),
		WithProgress(func(phase string) {
			phases = append(phases, phase)
			cancel() // cancel at the first phase boundary
		}),
	)
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if len(phases) == 0 {
		t.Fatal("progress callback never fired")
	}
	// The run must have stopped at the first boundary after cancellation.
	if len(phases) > 1 {
		t.Fatalf("run continued past cancellation: observed phases %v", phases)
	}
}

// A context cancelled before Run starts aborts immediately.
func TestEngineRunPreCancelledContext(t *testing.T) {
	g := RandomGraph(16, 10, 1)
	eng := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// An expired deadline is reported as DeadlineExceeded.
func TestEngineRunDeadline(t *testing.T) {
	g := RandomGraph(64, 30, 5)
	eng := New()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := eng.Run(ctx, g, WithAlgorithm(AlgConstant)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
}

// Progress events fire in phase order on an uncancelled run.
func TestEngineRunProgressEvents(t *testing.T) {
	g := RandomGraph(64, 30, 9)
	eng := New()
	var phases []string
	_, err := eng.Run(context.Background(), g,
		WithAlgorithm(AlgConstant),
		WithSeed(2),
		WithProgress(func(phase string) { phases = append(phases, phase) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) < 2 {
		t.Fatalf("expected multiple phase events, got %v", phases)
	}
	if phases[0] != "theorem11/knearest" {
		t.Fatalf("first phase %q, want theorem11/knearest", phases[0])
	}
}

// A fresh Engine's unpinned runs draw seeds derived from base 1. These are
// its first three, so any change to the derivation shows up here.
func TestEngineDerivedSeedsFromBaseOne(t *testing.T) {
	g := RandomGraph(8, 10, 1)
	eng := New()
	for i, want := range []int64{-7995527694508729151, -4689498862643123097, -534904783426661026} {
		res, err := eng.Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Seed != want {
			t.Fatalf("run %d: derived seed %d, want %d", i, res.Seed, want)
		}
	}
}

// Engine defaults apply and per-run options override them.
func TestEngineDefaultsAndOverrides(t *testing.T) {
	g := RandomGraph(40, 20, 4)
	eng := New(WithAlgorithm(AlgLogApprox), WithEps(0.5))
	res, err := eng.Run(context.Background(), g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgLogApprox {
		t.Fatalf("default algorithm not applied: got %q", res.Algorithm)
	}
	res, err = eng.Run(context.Background(), g, WithAlgorithm(AlgExact), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgExact {
		t.Fatalf("override not applied: got %q", res.Algorithm)
	}
}

func TestEngineNilReceiverAndNilContext(t *testing.T) {
	var nilEng *Engine
	if _, err := nilEng.Run(context.Background(), RandomGraph(8, 5, 1)); err == nil {
		t.Fatal("nil engine accepted")
	}
	// A nil context is replaced with context.Background.
	eng := New()
	if _, err := eng.Run(nil, RandomGraph(8, 5, 1), WithAlgorithm(AlgExact)); err != nil { //nolint:staticcheck
		t.Fatal(err)
	}
}

// The distance view is zero-copy: Row aliases the run's storage, ToSlices
// copies.
func TestDistanceMatrixViewSemantics(t *testing.T) {
	g := RandomGraph(24, 10, 6)
	res, err := New().Run(context.Background(), g, WithAlgorithm(AlgExact))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Distances
	row := m.Row(3)
	if &row[0] != &m.Row(3)[0] {
		t.Fatal("Row is not a stable view")
	}
	slices := m.ToSlices()
	if &slices[3][0] == &row[0] {
		t.Fatal("ToSlices aliases the backing storage")
	}
	slices[3][0] = -77
	if m.At(3, 0) == -77 {
		t.Fatal("mutating ToSlices output affected the view")
	}

	var pairs int
	m.Each(func(u, v int, d int64) bool {
		if u == v {
			t.Fatal("Each visited the diagonal")
		}
		pairs++
		return true
	})
	if want := m.N()*m.N() - m.N(); pairs != want {
		t.Fatalf("Each visited %d pairs, want %d", pairs, want)
	}
	m.Each(func(u, v int, d int64) bool { return false })
}

func TestRegisterCustomAlgorithm(t *testing.T) {
	name := Algorithm("test-oracle")
	err := Register(name, AlgorithmSpec{
		Summary:     "exact oracle for registry tests",
		FactorBound: "1 (exact)",
		RoundClass:  "O(1) (charged)",
		Baseline:    true,
		Run: func(ctx context.Context, g *Graph, p RunParams) (AlgorithmOutput, error) {
			return AlgorithmOutput{Distances: Exact(g), Factor: 1, Rounds: 3}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { registry.Unregister(string(name)) })

	found := false
	for _, a := range Algorithms() {
		if a == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered algorithm missing from Algorithms(): %v", Algorithms())
	}

	g := RandomGraph(24, 10, 2)
	res, err := New().Run(context.Background(), g, WithAlgorithm(name))
	if err != nil {
		t.Fatal(err)
	}
	assertSameDistances(t, res.Distances, Exact(g))
	if res.Rounds < 3 {
		t.Fatalf("charged rounds %d, want ≥ 3", res.Rounds)
	}

	// Duplicate and invalid registrations are rejected.
	if err := Register(name, AlgorithmSpec{Run: func(ctx context.Context, g *Graph, p RunParams) (AlgorithmOutput, error) {
		return AlgorithmOutput{}, nil
	}}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := Register("no-runner", AlgorithmSpec{}); err == nil {
		t.Fatal("nil runner accepted")
	}
}

func TestRegisteredAlgorithmMalformedOutput(t *testing.T) {
	name := Algorithm("test-malformed")
	if err := Register(name, AlgorithmSpec{
		Run: func(ctx context.Context, g *Graph, p RunParams) (AlgorithmOutput, error) {
			small, _ := DistancesFromSlices([][]int64{{0}})
			return AlgorithmOutput{Distances: small, Factor: 1}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { registry.Unregister(string(name)) })
	g := RandomGraph(8, 5, 1)
	if _, err := New().Run(context.Background(), g, WithAlgorithm(name)); err == nil {
		t.Fatal("malformed estimate accepted")
	}

	negName := Algorithm("test-negative-rounds")
	if err := Register(negName, AlgorithmSpec{
		Run: func(ctx context.Context, g *Graph, p RunParams) (AlgorithmOutput, error) {
			return AlgorithmOutput{Distances: Exact(g), Factor: 1, Rounds: -1}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { registry.Unregister(string(negName)) })
	if _, err := New().Run(context.Background(), g, WithAlgorithm(negName)); err == nil {
		t.Fatal("negative round charge accepted")
	}
}

func TestAlgorithmInfosMetadataComplete(t *testing.T) {
	infos := AlgorithmInfos()
	if len(infos) < 6 {
		t.Fatalf("expected ≥ 6 registered algorithms, got %d", len(infos))
	}
	builtin := map[Algorithm]bool{
		AlgConstant: true, AlgTradeoff: true, AlgSmallDiameter: true,
		AlgLargeBandwidth: true, AlgLogApprox: true, AlgExact: true,
	}
	seen := 0
	for _, info := range infos {
		if !builtin[info.Name] {
			continue
		}
		seen++
		if info.Summary == "" || info.FactorBound == "" || info.RoundClass == "" || info.Bandwidth == "" {
			t.Fatalf("builtin %q has incomplete metadata: %+v", info.Name, info)
		}
	}
	if seen != len(builtin) {
		t.Fatalf("only %d of %d builtins registered", seen, len(builtin))
	}
}

// The unknown-algorithm error names the registry contents.
func TestEngineUnknownAlgorithmErrorListsRegistry(t *testing.T) {
	g := RandomGraph(8, 5, 1)
	_, err := New().Run(context.Background(), g, WithAlgorithm("definitely-not-registered"))
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, want := range []string{"constant", "exact"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list registered algorithm %q", err, want)
		}
	}
}

// Cancellation works for every registered builtin that runs long enough to
// hit a checkpoint.
func TestEngineCancellationAcrossAlgorithms(t *testing.T) {
	g := RandomGraph(64, 30, 11)
	eng := New()
	for _, alg := range []Algorithm{AlgConstant, AlgSmallDiameter, AlgLargeBandwidth, AlgExact} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := eng.Run(ctx, g, WithAlgorithm(alg), WithSeed(1)); !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, want context.Canceled", err)
			}
		})
	}
}

func BenchmarkEngineRunConstant(b *testing.B) {
	g := RandomGraph(96, 40, 3)
	eng := New()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, g, WithAlgorithm(AlgConstant), WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineRunParallel(b *testing.B) {
	g := RandomGraph(96, 40, 3)
	eng := New()
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.Run(ctx, g, WithAlgorithm(AlgLogApprox)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Kernel parallelism is a performance knob, never a semantic one: the same
// seeded run must produce identical distances and accounting whether the
// kernels run serially or across the whole shared pool, at construction
// default or per-run override.
func TestEngineParallelismEquivalence(t *testing.T) {
	g := RandomGraph(48, 25, 9)
	ctx := context.Background()

	wide, err := New().Run(ctx, g, WithAlgorithm(AlgExact), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	serialRun, err := New().Run(ctx, g,
		WithAlgorithm(AlgExact), WithSeed(7), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	serialDefault, err := New(WithParallelism(1)).Run(ctx, g,
		WithAlgorithm(AlgExact), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}

	for _, res := range []*Result{serialRun, serialDefault} {
		if res.Rounds != wide.Rounds || res.Messages != wide.Messages {
			t.Fatalf("accounting differs across parallelism: %d/%d vs %d/%d",
				res.Rounds, res.Messages, wide.Rounds, wide.Messages)
		}
		assertSameDistances(t, wide.Distances, res.Distances)
	}

	// The randomized pipeline too: parallelism must not perturb the RNG.
	w2, err := New().Run(ctx, g, WithAlgorithm(AlgConstant), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New().Run(ctx, g,
		WithAlgorithm(AlgConstant), WithSeed(11), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	assertSameDistances(t, w2.Distances, s2.Distances)
}

// runDiff names the first way two results differ ("" if they agree): the
// distances, the model cost, the phases, the algorithm, the factor bound and
// the seed.
func runDiff(a, b *Result) string {
	switch {
	case a.Algorithm != b.Algorithm:
		return fmt.Sprintf("algorithm %q vs %q", a.Algorithm, b.Algorithm)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	case a.FactorBound != b.FactorBound:
		return fmt.Sprintf("factor bound %v vs %v", a.FactorBound, b.FactorBound)
	case a.Rounds != b.Rounds || a.Messages != b.Messages || a.Words != b.Words:
		return fmt.Sprintf("cost %d/%d/%d vs %d/%d/%d",
			a.Rounds, a.Messages, a.Words, b.Rounds, b.Messages, b.Words)
	case !reflect.DeepEqual(a.Violations, b.Violations):
		return fmt.Sprintf("violations %q vs %q", a.Violations, b.Violations)
	case !reflect.DeepEqual(a.Phases, b.Phases):
		return fmt.Sprintf("phases %+v vs %+v", a.Phases, b.Phases)
	}
	n := a.Distances.N()
	if n != b.Distances.N() {
		return fmt.Sprintf("n %d vs %d", n, b.Distances.N())
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if x, y := a.Distances.At(u, v), b.Distances.At(u, v); x != y {
				return fmt.Sprintf("D(%d,%d) %d vs %d", u, v, x, y)
			}
		}
	}
	return ""
}

// An option given to New is the default of every Run: New(opt).Run(g)
// equals New().Run(g, opt), and the same option given to Run wins over it.
func TestNewOptionsAreRunDefaults(t *testing.T) {
	g := RandomGraph(40, 3, 4)
	ctx := context.Background()
	pin := WithSeed(3)
	run := func(t *testing.T, eng *Engine, opts ...RunOption) *Result {
		t.Helper()
		res, err := eng.Run(ctx, g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cases := []struct {
		name       string
		common     []RunOption // given to every Run
		opt, other RunOption
		visible    bool // opt changes the result, and other changes it again
	}{
		{"algorithm", []RunOption{pin}, WithAlgorithm(AlgLogApprox), WithAlgorithm(AlgExact), true},
		{"seed", nil, WithSeed(5), WithSeed(9), true},
		{"t", []RunOption{pin, WithAlgorithm(AlgTradeoff)}, WithT(2), WithT(3), true},
		{"eps", []RunOption{pin, WithAlgorithm(AlgLargeBandwidth)}, WithEps(2), WithEps(0.5), true},
		{"bandwidth", []RunOption{pin}, WithBandwidth(4), WithBandwidth(2), true},
		{"deterministic", []RunOption{pin}, WithDeterministicRun(true), WithDeterministicRun(false), true},
		{"parallelism", []RunOption{pin}, WithParallelism(1), WithParallelism(2), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			with := func(opts ...RunOption) []RunOption {
				return append(append([]RunOption(nil), tc.common...), opts...)
			}
			viaNew := run(t, New(tc.opt), with()...)
			if d := runDiff(viaNew, run(t, New(), with(tc.opt)...)); d != "" {
				t.Fatalf("New(opt).Run differs from New().Run(opt): %s", d)
			}
			if d := runDiff(viaNew, run(t, New(), with()...)); tc.visible && d == "" {
				t.Fatal("option given to New had no effect")
			}
			over := run(t, New(tc.opt), with(tc.other)...)
			if d := runDiff(over, run(t, New(), with(tc.other)...)); d != "" {
				t.Fatalf("Run's option did not override New's: %s", d)
			}
			if d := runDiff(over, viaNew); tc.visible && d == "" {
				t.Fatal("option given to Run had no effect over New's")
			}
		})
	}

	t.Run("progress", func(t *testing.T) {
		record := func(dst *[]string) RunOption {
			return WithProgress(func(p string) { *dst = append(*dst, p) })
		}
		var viaNew, viaRun, shadowed, overridden []string
		a := run(t, New(record(&viaNew)), pin)
		b := run(t, New(), pin, record(&viaRun))
		if d := runDiff(a, b); d != "" {
			t.Fatalf("New(WithProgress).Run differs from New().Run(WithProgress): %s", d)
		}
		if len(viaNew) == 0 || !reflect.DeepEqual(viaNew, viaRun) {
			t.Fatalf("phases seen via New %v, via Run %v", viaNew, viaRun)
		}
		run(t, New(record(&shadowed)), pin, record(&overridden))
		if len(shadowed) != 0 || !reflect.DeepEqual(overridden, viaRun) {
			t.Fatalf("Run's progress did not override New's: New's saw %v, Run's saw %v", shadowed, overridden)
		}
	})
}
