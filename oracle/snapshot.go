package oracle

import (
	"context"
	"fmt"
	"sync"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/tier"
)

// rowSource supplies a snapshot's distance entries, rows and input graph.
// EntryCtx answers one pair and is what Dist and Batch use; VisitRowCtx
// lends one full length-n row, read-only, to a callback and is what Path
// uses. Neither lets a caller keep a row, so a source may lend a row it
// recycles. *tier.Reader and *resident are the two.
type rowSource interface {
	EntryCtx(ctx context.Context, u, v int) (int64, error)
	VisitRowCtx(ctx context.Context, u int, fn func(row []int64)) error
	GraphCtx(ctx context.Context) (*cliqueapsp.Graph, error)
}

// resident is the hot row source: the symmetric estimate held in memory as
// its packed upper triangle, so each pair is stored once — n(n+1)/2 entries
// of 8 bytes where the full matrix took n². Row i of the triangle starts at
// triOff(n, i) and holds the entries (i, j) for j ≥ i. Its reads never fail.
type resident struct {
	g    *cliqueapsp.Graph
	n    int
	tri  []int64
	rows sync.Pool // *[]int64 of n entries: VisitRowCtx's gather scratch
}

func newResident(g *cliqueapsp.Graph, tri []int64) *resident {
	n := g.N()
	r := &resident{g: g, n: n, tri: tri}
	r.rows.New = func() any {
		row := make([]int64, n)
		return &row
	}
	return r
}

// triOff is the index of entry (i, i) in an n-node packed triangle: the
// start of its row i.
func triOff(n, i int) int { return i*n - i*(i-1)/2 }

func (r *resident) EntryCtx(_ context.Context, u, v int) (int64, error) {
	if u > v {
		u, v = v, u
	}
	return r.tri[triOff(r.n, u)+v-u], nil
}

// VisitRowCtx gathers row v into a pooled scratch row, so a Path allocates
// nothing for it.
func (r *resident) VisitRowCtx(_ context.Context, v int, fn func(row []int64)) error {
	row := r.rows.Get().(*[]int64)
	r.rowInto(v, *row)
	fn(*row)
	r.rows.Put(row)
	return nil
}

// rowInto writes row v of the estimate into dst (n entries). The entries
// (w, v) for w < v sit in column v of the rows above v: one per row,
// n−w−1 entries apart. The entries (v, j) for j ≥ v are one run.
func (r *resident) rowInto(v int, dst []int64) {
	i := v // triOff(n, 0) + v
	for w := 0; w < v; w++ {
		dst[w] = r.tri[i]
		i += r.n - w - 1
	}
	copy(dst[v:], r.tri[i:i+r.n-v]) // i == triOff(n, v) here
}

// widen unpacks the triangle into a full n×n matrix, the form repair
// patches.
func (r *resident) widen() *cliqueapsp.DistanceMatrix {
	d, err := cliqueapsp.DistancesFromRows(r.n, func(u int, dst []int64) error {
		r.rowInto(u, dst)
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("oracle: widening the resident estimate: %v", err))
	}
	return d
}

func (r *resident) GraphCtx(context.Context) (*cliqueapsp.Graph, error) { return r.g, nil }

// packSymmetric packs d's upper triangle in resident's layout, refusing an
// estimate whose entries (u,v) and (v,u) differ. Every entry at or above Inf
// counts as the same and packs as Inf; every reader treats those alike.
// Path reads each hop off the destination's row, which routes like the
// source's only on a symmetric estimate: the built-in algorithms produce
// one, a registered algorithm need not. One O(n²) pass, 32 columns at a
// time, keeps the rows it packs from and the column it compares against in
// cache.
func packSymmetric(d *cliqueapsp.DistanceMatrix) ([]int64, error) {
	const block = 32
	n := d.N()
	tri := make([]int64, n*(n+1)/2)
	var cols [block][]int64 // rows bj.., read down column i
	for bj := 0; bj < n; bj += block {
		hi := min(bj+block, n)
		for j := bj; j < hi; j++ {
			cols[j-bj] = d.Row(j)
		}
		for i := 0; i < hi; i++ {
			// packed[j] is entry (i, j) of the triangle, for j ≥ i.
			start := triOff(n, i) - i
			row, packed := d.Row(i), tri[start:start+n]
			for j := max(bj, i); j < hi; j++ {
				a, b := row[j], cols[j-bj][i]
				if a != b && min(a, b) < cliqueapsp.Inf {
					return nil, fmt.Errorf("oracle: asymmetric estimate refused: d(%d,%d)=%d but d(%d,%d)=%d", i, j, a, j, i, b)
				}
				packed[j] = min(a, cliqueapsp.Inf)
			}
		}
	}
	return tri, nil
}

// snapshot is one published build: its version and provenance, and the
// single row source every query reads. It is immutable after publication.
//
// The row source is the snapshot's tier. A hot snapshot reads a resident
// packed triangle, which cannot fail. A cold snapshot reads a *tier.Reader:
// one pread behind a bounded hot-row LRU, with the graph decoded lazily from
// the snapshot file the first time a Path query needs it. Both produce the
// same rows, so answers and routes are bit-identical; only a cold read can
// fail, and that failure reaches the caller wrapped in ErrColdRead. Nothing
// else in the snapshot branches on the tier.
type snapshot struct {
	version  uint64
	builtAt  time.Time
	buildDur time.Duration
	phases   []PhaseTiming      // per-phase build breakdown; nil for restores
	res      *cliqueapsp.Result // provenance; Distances always nil (rows live in src)
	n, m     int
	src      rowSource
}

// newSnapshot packs a graph and its estimate as a hot snapshot, refusing an
// asymmetric estimate. It keeps res's provenance, not its matrix: once the
// caller drops res.Distances, the snapshot holds each pair once.
func newSnapshot(version uint64, g *cliqueapsp.Graph, res *cliqueapsp.Result) (*snapshot, error) {
	tri, err := packSymmetric(res.Distances)
	if err != nil {
		return nil, err
	}
	prov := *res
	prov.Distances = nil
	return &snapshot{
		version: version,
		builtAt: time.Now(),
		res:     &prov,
		n:       g.N(),
		m:       g.NumEdges(),
		src:     newResident(g, tri),
	}, nil
}

// newColdSnapshot wraps a tier.Reader as a cold snapshot: provenance comes
// from the reader's row index, rows come off disk on demand. The reader is
// owned by the snapshot from here on; it is never explicitly closed while
// the snapshot may serve (queries racing a swap keep their handle), the
// file closes when the last reference is collected.
func newColdSnapshot(r *tier.Reader) *snapshot {
	ix := r.Index()
	return &snapshot{
		version: ix.Version,
		builtAt: time.Now(),
		res: &cliqueapsp.Result{
			Algorithm:   cliqueapsp.Algorithm(ix.Algorithm),
			FactorBound: ix.FactorBound,
			Seed:        ix.Seed,
		},
		n:   ix.N,
		m:   ix.M,
		src: r,
	}
}

// reader returns the snapshot's tier reader, or nil when its rows are
// resident.
func (s *snapshot) reader() *tier.Reader {
	r, _ := s.src.(*tier.Reader)
	return r
}

func (s *snapshot) check(u, v int) error {
	if u < 0 || u >= s.n || v < 0 || v >= s.n {
		return fmt.Errorf("oracle: pair (%d,%d) out of range for n=%d (snapshot v%d)", u, v, s.n, s.version)
	}
	return nil
}

// answer resolves one pair from the row source. A failed read is wrapped in
// ErrColdRead. ctx only carries the active trace span (if the request is
// sampled); it does not cancel the read.
func (s *snapshot) answer(ctx context.Context, u, v int) (Answer, error) {
	a := Answer{U: u, V: v, Distance: Unreachable}
	d, err := s.src.EntryCtx(ctx, u, v)
	if err != nil {
		return a, fmt.Errorf("%w: %w", ErrColdRead, err)
	}
	if d < cliqueapsp.Inf {
		a.Distance, a.Reachable = d, true
	}
	return a, nil
}

// path routes greedily from u to v over the destination's row: it visits
// row v once, answers D(v,u) from it — the estimate is symmetric (checked
// when packed, before it is persisted) — and walks cliqueapsp.RouteToward
// over the same row. A failed row or graph read surfaces as ErrColdRead,
// never as ErrNoRoute.
func (s *snapshot) path(ctx context.Context, u, v int) (PathResult, error) {
	out := PathResult{U: u, V: v, Cost: Unreachable, Version: s.version}
	g, err := s.src.GraphCtx(ctx)
	if err != nil {
		return out, fmt.Errorf("%w: %w", ErrColdRead, err)
	}
	rv := routeVisits.Get().(*routeVisit)
	rv.g, rv.u, rv.v = g, u, v
	verr := s.src.VisitRowCtx(ctx, v, rv.fn)
	reachable, route, cost, err := rv.reachable, rv.path, rv.cost, rv.err
	*rv = routeVisit{fn: rv.fn}
	routeVisits.Put(rv)
	if verr != nil {
		return out, fmt.Errorf("%w: %w", ErrColdRead, verr)
	}
	if err != nil {
		// ErrNoRoute on a reachable pair means greedy forwarding looped or
		// dead-ended on the approximate estimate — surfaced, not guessed.
		return out, fmt.Errorf("oracle: snapshot v%d: %w", s.version, err)
	}
	if reachable {
		out.Reachable, out.Path, out.Cost = true, route, cost
	}
	return out, nil
}

// routeVisit is one Path's walk over the destination's row, lent to
// rowSource.VisitRowCtx. Visits are pooled with their visit method bound
// once, so a Path allocates nothing beyond the route it returns.
type routeVisit struct {
	g         *cliqueapsp.Graph
	u, v      int
	reachable bool
	path      []int
	cost      int64
	err       error
	fn        func(rowV []int64) // visit, bound to this routeVisit
}

var routeVisits = sync.Pool{New: func() any {
	rv := new(routeVisit)
	rv.fn = rv.visit
	return rv
}}

func (rv *routeVisit) visit(rowV []int64) {
	if rv.reachable = rowV[rv.u] < cliqueapsp.Inf; rv.reachable {
		rv.path, rv.cost, rv.err = cliqueapsp.RouteToward(rv.g, rv.u, rv.v, rowV)
	}
}
