package oracle

import (
	"context"
	"fmt"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/tier"
)

// rowSource supplies a snapshot's distance entries, rows and input graph.
// EntryCtx answers one pair and is what Dist and Batch use; VisitRowCtx
// lends one full length-n row, read-only, to a callback and is what Path
// uses. Neither lets a caller keep a row, so a cold source may recycle its
// rows. *tier.Reader is one.
type rowSource interface {
	EntryCtx(ctx context.Context, u, v int) (int64, error)
	VisitRowCtx(ctx context.Context, u int, fn func(row []int64)) error
	GraphCtx(ctx context.Context) (*cliqueapsp.Graph, error)
}

// resident is the hot row source: the full n×n estimate held in memory. Its
// reads never fail.
type resident struct {
	g *cliqueapsp.Graph
	d *cliqueapsp.DistanceMatrix
}

func (r *resident) EntryCtx(_ context.Context, u, v int) (int64, error) { return r.d.At(u, v), nil }

func (r *resident) VisitRowCtx(_ context.Context, u int, fn func(row []int64)) error {
	fn(r.d.Row(u))
	return nil
}

func (r *resident) GraphCtx(context.Context) (*cliqueapsp.Graph, error) { return r.g, nil }

// snapshot is one published build: its version and provenance, and the
// single row source every query reads. It is immutable after publication.
//
// The row source is the snapshot's tier. A hot snapshot reads a resident
// matrix, which cannot fail. A cold snapshot reads a *tier.Reader: one pread
// behind a bounded hot-row LRU, with the graph decoded lazily from the
// snapshot file the first time a Path query needs it. Both produce the same
// rows, so answers and routes are bit-identical; only a cold read can fail,
// and that failure reaches the caller wrapped in ErrColdRead. Nothing else
// in the snapshot branches on the tier.
type snapshot struct {
	version  uint64
	builtAt  time.Time
	buildDur time.Duration
	phases   []PhaseTiming      // per-phase build breakdown; nil for restores
	res      *cliqueapsp.Result // provenance; Distances nil when cold
	n, m     int
	src      rowSource
}

// newSnapshot wraps a resident graph and estimate as a hot snapshot.
func newSnapshot(version uint64, g *cliqueapsp.Graph, res *cliqueapsp.Result) *snapshot {
	return &snapshot{
		version: version,
		builtAt: time.Now(),
		res:     res,
		n:       g.N(),
		m:       g.NumEdges(),
		src:     &resident{g: g, d: res.Distances},
	}
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
// row v once, answers D(v,u) from it — the estimate is symmetric (checked at
// publish) — and walks cliqueapsp.RouteToward over the same row. A failed
// row or graph read surfaces as ErrColdRead, never as ErrNoRoute.
func (s *snapshot) path(ctx context.Context, u, v int) (PathResult, error) {
	out := PathResult{U: u, V: v, Cost: Unreachable, Version: s.version}
	g, err := s.src.GraphCtx(ctx)
	if err != nil {
		return out, fmt.Errorf("%w: %w", ErrColdRead, err)
	}
	if verr := s.src.VisitRowCtx(ctx, v, func(rowV []int64) {
		if out.Reachable = rowV[u] < cliqueapsp.Inf; out.Reachable {
			out.Path, out.Cost, err = cliqueapsp.RouteToward(g, u, v, rowV)
		}
	}); verr != nil {
		return out, fmt.Errorf("%w: %w", ErrColdRead, verr)
	}
	if err != nil {
		// ErrNoRoute on a reachable pair means greedy forwarding looped or
		// dead-ended on the approximate estimate — surfaced, not guessed.
		out.Reachable, out.Cost = false, Unreachable
		return out, fmt.Errorf("oracle: snapshot v%d: %w", s.version, err)
	}
	return out, nil
}
