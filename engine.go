package cliqueapsp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/core"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/registry"
	"github.com/congestedclique/cliqueapsp/internal/sched"
)

// Engine executes the registered algorithms. One Engine is safe for
// concurrent use by any number of goroutines: it holds only immutable
// per-run defaults and an atomic seed counter, and every Run builds its own
// simulator, RNG and accounting. Construct with New; the zero value is not
// usable.
//
//	eng := cliqueapsp.New()
//	res, err := eng.Run(ctx, g, cliqueapsp.WithAlgorithm(cliqueapsp.AlgConstant))
type Engine struct {
	defaults runConfig
	seedSeq  atomic.Uint64
}

// New returns an Engine whose runs start from the package defaults
// (AlgConstant, eps 0.1, t 1, randomized mode, the whole shared pool) with
// opts applied over them: an option given here is the default for every
// Run, and a Run's own options are applied after it. A seed given here pins
// every run that does not pin its own; otherwise each run draws a distinct,
// reproducible seed from a per-engine counter.
func New(opts ...RunOption) *Engine {
	e := &Engine{defaults: runConfig{alg: AlgConstant, eps: 0.1, t: 1}}
	for _, opt := range opts {
		opt(&e.defaults)
	}
	return e
}

// runConfig is the resolved per-run configuration.
type runConfig struct {
	alg           Algorithm
	t             int
	eps           float64
	bandwidth     int
	deterministic bool
	seed          *int64
	progress      ProgressFunc
	par           int
}

// RunOption sets one run parameter, for a single Engine.Run call or, given
// to New, as the Engine's default for every run.
type RunOption func(*runConfig)

// WithAlgorithm selects the run's algorithm by registry name.
func WithAlgorithm(a Algorithm) RunOption {
	return func(c *runConfig) { c.alg = a }
}

// WithSeed pins the run's seed. Two runs of the same engine with the same
// graph, options and seed produce identical estimates and accounting.
func WithSeed(seed int64) RunOption {
	return func(c *runConfig) { s := seed; c.seed = &s }
}

// WithT sets the Theorem 1.2 tradeoff parameter (AlgTradeoff only).
func WithT(t int) RunOption {
	return func(c *runConfig) { c.t = t }
}

// WithEps sets the accuracy slack of the scaling stages.
func WithEps(eps float64) RunOption {
	return func(c *runConfig) { c.eps = eps }
}

// WithBandwidth overrides the model bandwidth in words per ordered pair per
// round (0 = the algorithm's natural model).
func WithBandwidth(words int) RunOption {
	return func(c *runConfig) { c.bandwidth = words }
}

// WithDeterministicRun toggles fully deterministic mode: greedy hitting
// sets instead of randomized ones.
func WithDeterministicRun(det bool) RunOption {
	return func(c *runConfig) { c.deterministic = det }
}

// WithParallelism caps the number of shared-pool workers the run's kernels
// may use. n ≤ 0 or above the pool size means the whole pool; 1 forces
// serial kernels. The cap budgets draw from the process-wide pool — it
// never spawns extra goroutines.
func WithParallelism(n int) RunOption {
	return func(c *runConfig) { c.par = n }
}

// ProgressFunc observes phase boundaries of a run, named as in Result.Phases.
// It is called synchronously from the run's goroutine; implementations must
// not block for long and must be safe for whatever concurrency the caller
// itself runs with.
type ProgressFunc func(phase string)

// WithProgress installs a per-phase progress callback.
func WithProgress(fn ProgressFunc) RunOption {
	return func(c *runConfig) { c.progress = fn }
}

// deriveSeed produces the run seed when none is pinned: a splitmix64 hash
// of base 1 and a per-engine atomic counter, so concurrent runs draw
// distinct but reproducible-per-value seeds.
func (e *Engine) deriveSeed() int64 {
	seq := e.seedSeq.Add(1)
	z := 1 + seq*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Run executes one algorithm on g. The context is polled at phase
// boundaries: cancellation or deadline expiry aborts the run between phases
// and returns the context's error. Graphs with zero-weight edges are
// handled transparently through the Theorem 2.1 reduction.
//
// The returned Result (including its Distances view) is immutable and safe
// to publish to other goroutines as-is; the oracle package relies on this
// for its lock-free snapshot handoff.
func (e *Engine) Run(ctx context.Context, g *Graph, opts ...RunOption) (*Result, error) {
	if e == nil {
		return nil, errors.New("cliqueapsp: nil engine (construct with New)")
	}
	if g == nil || g.inner == nil {
		return nil, errors.New("cliqueapsp: nil graph")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	rc := e.defaults
	for _, opt := range opts {
		opt(&rc)
	}
	if rc.alg == "" {
		rc.alg = AlgConstant
	}
	if rc.eps <= 0 {
		rc.eps = 0.1
	}
	if rc.t < 1 {
		rc.t = 1
	}

	spec, ok := registry.Lookup(string(rc.alg))
	if !ok {
		return nil, fmt.Errorf("cliqueapsp: unknown algorithm %q (registered: %s)",
			rc.alg, strings.Join(registry.SortedNames(), ", "))
	}

	var seed int64
	if rc.seed != nil {
		seed = *rc.seed
	} else {
		seed = e.deriveSeed()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	n := g.inner.N()
	bw := spec.BandwidthFor(n, rc.bandwidth)
	cfg := core.Config{
		Eps:           rc.eps,
		Rng:           rand.New(rand.NewSource(seed)),
		Deterministic: rc.deterministic,
		Ctx:           ctx,
		Progress:      rc.progress,
		Par:           sched.Shared().Group(ctx, rc.par),
	}
	params := registry.Params{T: rc.t}
	inner := func(c *cc.Clique, gg *graph.Graph, cf core.Config) (core.Estimate, error) {
		return spec.Run(c, gg, cf, params)
	}

	clq := cc.New(n, bw)
	est, err := core.WithZeroWeights(clq, g.inner, cfg, inner)
	if err != nil {
		return nil, err
	}
	return buildResult(rc.alg, seed, est, clq.Metrics()), nil
}

// SSSP returns the exact single-source shortest-path distances from src in
// g (sequential Dijkstra), with Inf marking unreachable nodes. It is the
// per-source primitive of the oracle's incremental repair path — repairing
// a published matrix after a small edge delta costs a few SSSP runs from
// the touched endpoints instead of a full congested-clique pipeline.
func SSSP(g *Graph, src int) ([]int64, error) {
	if g == nil || g.inner == nil {
		return nil, errors.New("cliqueapsp: nil graph")
	}
	if src < 0 || src >= g.inner.N() {
		return nil, fmt.Errorf("cliqueapsp: source %d out of range for n=%d", src, g.inner.N())
	}
	return g.inner.Dijkstra(src), nil
}

func buildResult(alg Algorithm, seed int64, est core.Estimate, m cc.Metrics) *Result {
	res := &Result{
		Distances:   newDistanceView(est.D),
		FactorBound: est.Factor,
		Algorithm:   alg,
		Seed:        seed,
		Rounds:      m.Rounds,
		Messages:    m.Messages,
		Words:       m.Words,
		Violations:  append([]string(nil), m.Violations...),
	}
	for _, p := range m.Phases {
		res.Phases = append(res.Phases, PhaseStat(p))
	}
	return res
}
