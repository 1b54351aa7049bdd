// Package registry is the algorithm catalog shared by the public API, the
// cmd/ tools, and the experiment harness. Each algorithm is a Spec: a runner
// over the simulated clique plus the metadata the callers previously
// duplicated as hard-coded enum lists (proven factor bound, round class,
// bandwidth model, baseline status). Registering a new algorithm makes it
// reachable from Engine.Run, `ccapsp -list`, `ccbench -list`, and the
// registry-driven comparison experiments without touching any of them.
package registry

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/core"
	"github.com/congestedclique/cliqueapsp/internal/graph"
)

// BandwidthModel names the Congested Clique bandwidth regime an algorithm
// is analyzed in.
type BandwidthModel string

const (
	// Standard is the classic model: one O(log n)-bit word per ordered pair
	// per round.
	Standard BandwidthModel = "standard"
	// Polylog is the Congested-Clique[log⁴n] model (log³n words per pair).
	Polylog BandwidthModel = "congested-clique[log⁴n]"
)

// Params is the per-run parameter bundle handed to a Spec's runner. The
// shared Config (rng, eps, context, progress) travels separately.
type Params struct {
	// T is the Theorem 1.2 tradeoff parameter (≥ 1).
	T int
}

// Runner executes an algorithm on the simulated clique and returns its
// estimate. Runners must be pure up to cfg.Rng: same graph, config and
// params must reproduce the same estimate and accounting.
type Runner func(clq *cc.Clique, g *graph.Graph, cfg core.Config, p Params) (core.Estimate, error)

// Spec describes one registered algorithm: its runner plus the metadata the
// tools render.
type Spec struct {
	// Name is the registry key (e.g. "constant").
	Name string
	// Summary is a one-line description with the paper reference.
	Summary string
	// FactorBound is the proven approximation bound, human-readable.
	FactorBound string
	// RoundClass is the proven round complexity, human-readable.
	RoundClass string
	// Bandwidth is the model the guarantee is stated in.
	Bandwidth BandwidthModel
	// Baseline marks comparison baselines (vs the paper's own results).
	Baseline bool
	// DefaultBandwidth returns the natural per-pair bandwidth in words for
	// an n-node run; nil means 1 (the standard model).
	DefaultBandwidth func(n int) int
	// Run executes the algorithm. Required.
	Run Runner
}

var (
	mu    sync.RWMutex
	specs = make(map[string]Spec)
	order []string // registration order, builtins first
)

// Register adds a Spec under spec.Name. It rejects empty names, nil
// runners, and duplicate registrations.
func Register(spec Spec) error {
	if spec.Name == "" {
		return fmt.Errorf("registry: empty algorithm name")
	}
	if spec.Run == nil {
		return fmt.Errorf("registry: algorithm %q has no runner", spec.Name)
	}
	if spec.Bandwidth == "" {
		spec.Bandwidth = Standard
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := specs[spec.Name]; dup {
		return fmt.Errorf("registry: algorithm %q already registered", spec.Name)
	}
	specs[spec.Name] = spec
	order = append(order, spec.Name)
	return nil
}

// Unregister removes the Spec registered under name, if any. Tests that
// register throwaway algorithms call it from t.Cleanup so that the global
// registry is left as they found it and the test can run again in the same
// process.
func Unregister(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := specs[name]; !ok {
		return
	}
	delete(specs, name)
	order = slices.DeleteFunc(order, func(s string) bool { return s == name })
}

// MustRegister is Register for init-time use; it panics on error.
func MustRegister(spec Spec) {
	if err := Register(spec); err != nil {
		panic(err)
	}
}

// Lookup returns the Spec registered under name.
func Lookup(name string) (Spec, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := specs[name]
	return s, ok
}

// Names returns all registered names in registration order (builtins first,
// then third-party registrations).
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return append([]string(nil), order...)
}

// All returns every registered Spec in registration order.
func All() []Spec {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Spec, 0, len(order))
	for _, name := range order {
		out = append(out, specs[name])
	}
	return out
}

// SortedNames returns all registered names sorted lexicographically, for
// stable error messages.
func SortedNames() []string {
	names := Names()
	sort.Strings(names)
	return names
}

// BandwidthFor resolves the per-pair bandwidth (in words) a Spec runs with
// on an n-node graph: the override when positive, otherwise the Spec's
// natural model default.
func (s Spec) BandwidthFor(n, override int) int {
	if override > 0 {
		return override
	}
	if s.DefaultBandwidth != nil {
		if bw := s.DefaultBandwidth(n); bw > 0 {
			return bw
		}
	}
	return 1
}
