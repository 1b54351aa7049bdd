package cliqueapsp

import (
	"fmt"

	"github.com/congestedclique/cliqueapsp/internal/minplus"
)

// DistanceMatrix is a read-only view of an n×n distance estimate, backed
// directly by the pipeline's row-major storage — no copy is made when a run
// returns, which halves the peak memory of a run compared to materializing
// a [][]int64. Row u is node u's knowledge: entry (u,v) is u's estimate of
// d(u,v), Inf when v is unreachable.
type DistanceMatrix struct {
	d *minplus.Dense
}

// newDistanceView wraps pipeline storage zero-copy. The caller transfers
// ownership: the engine never mutates an estimate after wrapping it.
func newDistanceView(d *minplus.Dense) *DistanceMatrix {
	return &DistanceMatrix{d: d}
}

// DistancesFromRows builds an n×n DistanceMatrix by calling fill once per
// row u with a destination slice of length n to populate in place. It is the
// streaming counterpart of DistancesFromSlices: the matrix storage is
// allocated once and rows are decoded straight into it, so a consumer such
// as the store snapshot codec never holds two copies of an n×n estimate. An
// error from fill aborts construction and is returned unchanged.
func DistancesFromRows(n int, fill func(u int, dst []int64) error) (*DistanceMatrix, error) {
	if n < 1 {
		return nil, fmt.Errorf("cliqueapsp: invalid matrix dimension %d", n)
	}
	d := minplus.NewDense(n)
	for u := 0; u < n; u++ {
		if err := fill(u, d.Row(u)); err != nil {
			return nil, err
		}
	}
	return &DistanceMatrix{d: d}, nil
}

// DistancesFromSlices builds a DistanceMatrix from a square slice-of-slices
// (copying it), for feeding externally produced estimates into Evaluate,
// SimulateForwarding, or a registered algorithm's output.
func DistancesFromSlices(rows [][]int64) (*DistanceMatrix, error) {
	n := len(rows)
	if n == 0 {
		return nil, fmt.Errorf("cliqueapsp: empty distance matrix")
	}
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("cliqueapsp: row %d has %d entries, want %d", i, len(r), n)
		}
	}
	return &DistanceMatrix{d: minplus.FromRows(rows)}, nil
}

// N returns the matrix dimension.
func (m *DistanceMatrix) N() int { return m.d.N() }

// At returns the estimate of d(u,v). Indices must be in [0,N).
func (m *DistanceMatrix) At(u, v int) int64 { return m.d.At(u, v) }

// Reachable reports whether v is reachable from u in the estimate, i.e.
// whether the entry (u,v) is finite. Estimates dominate the true distances,
// so an entry below Inf certifies a real path.
func (m *DistanceMatrix) Reachable(u, v int) bool { return m.d.At(u, v) < Inf }

// Row returns node u's estimate vector as a zero-copy view into the shared
// storage. Callers must treat it as read-only.
func (m *DistanceMatrix) Row(u int) []int64 { return m.d.Row(u) }

// Each calls fn for every ordered pair (u,v), u ≠ v, in row-major order,
// stopping early if fn returns false.
func (m *DistanceMatrix) Each(fn func(u, v int, d int64) bool) {
	n := m.d.N()
	for u := 0; u < n; u++ {
		row := m.d.Row(u)
		for v, d := range row {
			if u == v {
				continue
			}
			if !fn(u, v, d) {
				return
			}
		}
	}
}

// ToSlices materializes the matrix as a freshly allocated [][]int64 — the
// seed API's representation, kept for compatibility with callers that need
// mutable or serializable output. This is the only copying accessor.
func (m *DistanceMatrix) ToSlices() [][]int64 {
	n := m.d.N()
	out := make([][]int64, n)
	for u := 0; u < n; u++ {
		out[u] = append([]int64(nil), m.d.Row(u)...)
	}
	return out
}

// dense exposes the backing storage to in-package consumers (Evaluate,
// routing) without copying.
func (m *DistanceMatrix) dense() *minplus.Dense { return m.d }

// PhaseStat is the per-phase accounting of a run. MaxSend and MaxRecv are
// the largest number of words any one node sent or received in a single
// operation of the phase (for a nested pipeline, in one of its own
// operations, unscaled by the rounds simulating it took).
type PhaseStat struct {
	Name     string
	Rounds   int64
	Messages int64
	Words    int64
	MaxSend  int64
	MaxRecv  int64
}

// Result reports a run's output and its simulated cost. A Result is
// immutable after Run returns: the engine never writes to it again, so it
// can be handed off to other goroutines — e.g. swapped in as an oracle
// snapshot — without copying or locking.
type Result struct {
	// Distances is the zero-copy view of the estimate; every entry dominates
	// the true distance.
	Distances *DistanceMatrix
	// FactorBound is the proven approximation factor of the estimates.
	FactorBound float64
	// Algorithm is the registry name of the algorithm that ran.
	Algorithm Algorithm
	// Seed is the seed that drove the run's randomness (either the seed
	// requested with WithSeed, or the engine-derived per-run seed).
	// Re-running with WithSeed(Seed) reproduces the result.
	Seed int64
	// Rounds, Messages and Words are the total simulated communication.
	Rounds   int64
	Messages int64
	Words    int64
	// Phases breaks the accounting down by the phases WithProgress reports.
	Phases []PhaseStat
	// Violations lists any Congested Clique load-budget violations detected
	// by the simulator (empty for sound runs).
	Violations []string
}
