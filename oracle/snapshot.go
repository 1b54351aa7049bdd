package oracle

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/tier"
)

// rowSource supplies a snapshot's distance entries, rows and input graph.
// EntryCtx answers one pair and is what Dist, Batch and Path's first lookup
// use: the source keeps its rows, so a cold one may recycle them. RowCtx
// hands out a full length-n row, shared and read-only, which the source
// never reuses; only next-hop builds need whole rows. *tier.Reader is one.
type rowSource interface {
	EntryCtx(ctx context.Context, u, v int) (int64, error)
	RowCtx(ctx context.Context, u int) ([]int64, error)
	GraphCtx(ctx context.Context) (*cliqueapsp.Graph, error)
}

// resident is the hot row source: the full n×n estimate held in memory. Its
// reads never fail.
type resident struct {
	g *cliqueapsp.Graph
	d *cliqueapsp.DistanceMatrix
}

func (r *resident) EntryCtx(_ context.Context, u, v int) (int64, error) { return r.d.At(u, v), nil }

func (r *resident) RowCtx(_ context.Context, u int) ([]int64, error) { return r.d.Row(u), nil }

func (r *resident) GraphCtx(context.Context) (*cliqueapsp.Graph, error) { return r.g, nil }

// snapshot is one published build: its version and provenance, the single
// row source every query reads, and the next-hop rows memoized over it.
//
// The row source is the snapshot's tier. A hot snapshot reads a resident
// matrix, which cannot fail. A cold snapshot reads a *tier.Reader: one pread
// behind a bounded hot-row LRU, with the graph decoded lazily from the
// snapshot file the first time a Path query needs it. Both produce the same
// rows, so answers and routes are bit-identical; only a cold read can fail,
// and that failure reaches the caller wrapped in ErrColdRead. Nothing else
// in the snapshot branches on the tier.
//
// Everything except the next-hop memo and the router is immutable after
// publication.
type snapshot struct {
	version  uint64
	builtAt  time.Time
	buildDur time.Duration
	phases   []PhaseTiming      // per-phase build breakdown; nil for restores
	res      *cliqueapsp.Result // provenance; Distances nil when cold
	n, m     int
	cnt      *counters
	src      rowSource

	// Next-hop memo: nh[u] holds node u's row once built. A miss builds the
	// row single-flight under mu; a failed build (a cold read error) is not
	// stored, so a transient failure never poisons the row. Built rows are
	// immutable, so the repair path may share them with a successor.
	nh      []atomic.Pointer[[]int]
	mu      sync.Mutex
	flights map[int]*nhFlight
	router  atomic.Pointer[cliqueapsp.GreedyRouter]
}

// nhFlight is one in-progress next-hop row build; done closes after row/err
// are set.
type nhFlight struct {
	done chan struct{}
	row  []int
	err  error
}

// newSnapshot wraps a resident graph and estimate as a hot snapshot.
func newSnapshot(version uint64, g *cliqueapsp.Graph, res *cliqueapsp.Result, cnt *counters) *snapshot {
	return &snapshot{
		version: version,
		builtAt: time.Now(),
		res:     res,
		n:       g.N(),
		m:       g.NumEdges(),
		cnt:     cnt,
		src:     &resident{g: g, d: res.Distances},
		nh:      make([]atomic.Pointer[[]int], g.N()),
	}
}

// newColdSnapshot wraps a tier.Reader as a cold snapshot: provenance comes
// from the reader's row index, rows come off disk on demand. The reader is
// owned by the snapshot from here on; it is never explicitly closed while
// the snapshot may serve (queries racing a swap keep their handle), the
// file closes when the last reference is collected.
func newColdSnapshot(r *tier.Reader, cnt *counters) *snapshot {
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
		cnt: cnt,
		src: r,
		nh:  make([]atomic.Pointer[[]int], ix.N),
	}
}

// newRepairedSnapshot is newSnapshot plus next-hop carryover: rows the base
// snapshot already materialized stay valid on the successor wherever the
// repair proved them untouched (reuse[u]), so a patched tenant does not
// re-derive its routing state. Built rows are immutable, so sharing them
// with the still-serving base is safe.
func newRepairedSnapshot(version uint64, g *cliqueapsp.Graph, res *cliqueapsp.Result, cnt *counters, base *snapshot, reuse []bool) *snapshot {
	s := newSnapshot(version, g, res, cnt)
	if base.n != s.n || len(reuse) != s.n {
		return s
	}
	for u := range s.nh {
		if reuse[u] {
			s.nh[u].Store(base.nh[u].Load())
		}
	}
	return s
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

// nextHops returns node u's memoized next-hop row, building it on first
// use from the distance rows of u's neighbors. Concurrent misses on one row
// share a single build, and a waiter on a successful build counts as a hit.
func (s *snapshot) nextHops(ctx context.Context, u int) ([]int, error) {
	if r := s.nh[u].Load(); r != nil {
		s.cnt.rowHits.Add(1)
		return *r, nil
	}
	s.mu.Lock()
	if r := s.nh[u].Load(); r != nil {
		s.mu.Unlock()
		s.cnt.rowHits.Add(1)
		return *r, nil
	}
	if fl, ok := s.flights[u]; ok {
		s.mu.Unlock()
		<-fl.done
		if fl.err == nil {
			s.cnt.rowHits.Add(1)
		}
		return fl.row, fl.err
	}
	if s.flights == nil {
		s.flights = make(map[int]*nhFlight)
	}
	fl := &nhFlight{done: make(chan struct{})}
	s.flights[u] = fl
	s.mu.Unlock()

	fl.row, fl.err = s.buildNextHops(ctx, u)

	s.mu.Lock()
	delete(s.flights, u)
	if fl.err == nil {
		s.nh[u].Store(&fl.row)
		s.cnt.rowsBuilt.Add(1)
	}
	s.mu.Unlock()
	close(fl.done)
	return fl.row, fl.err
}

func (s *snapshot) buildNextHops(ctx context.Context, u int) ([]int, error) {
	g, err := s.src.GraphCtx(ctx)
	if err != nil {
		return nil, err
	}
	// The closure keeps the caller's trace context flowing into the per-
	// neighbor distance-row reads.
	return cliqueapsp.NextHopRowFrom(g, u, func(x int) ([]int64, error) {
		return s.src.RowCtx(ctx, x)
	})
}

// greedyRouter returns the snapshot's router, building it over the source's
// graph on first use. A failed graph read is not memoized; racing first
// builds are harmless, one router wins and the others are dropped.
func (s *snapshot) greedyRouter(ctx context.Context) (*cliqueapsp.GreedyRouter, error) {
	if r := s.router.Load(); r != nil {
		return r, nil
	}
	g, err := s.src.GraphCtx(ctx)
	if err != nil {
		return nil, err
	}
	// No rows callback: every route goes through RouteVia with its own.
	s.router.CompareAndSwap(nil, cliqueapsp.NewGreedyRouter(g, nil))
	return s.router.Load(), nil
}

// path routes greedily from u to v over memoized next-hop rows. Rows are
// resolved through RouteVia with a per-call error slot, so a read failure
// mid-route surfaces as the ErrColdRead it is, not as ErrNoRoute.
func (s *snapshot) path(ctx context.Context, u, v int) (PathResult, error) {
	res := PathResult{U: u, V: v, Cost: Unreachable, Version: s.version}
	a, err := s.answer(ctx, u, v)
	if err != nil || !a.Reachable {
		return res, err
	}
	router, err := s.greedyRouter(ctx)
	if err != nil {
		return res, fmt.Errorf("%w: %w", ErrColdRead, err)
	}
	var rerr error
	path, cost, err := router.RouteVia(u, v, func(src int) []int {
		r, err := s.nextHops(ctx, src)
		if err != nil {
			// A row of dead ends stops the walk at once.
			rerr = err
			r = make([]int, s.n)
			for i := range r {
				r[i] = -1
			}
		}
		return r
	})
	if rerr != nil {
		return res, fmt.Errorf("%w: %w", ErrColdRead, rerr)
	}
	if err != nil {
		// ErrNoRoute on a reachable pair means greedy forwarding looped or
		// dead-ended on the approximate estimate — surfaced, not guessed.
		return res, fmt.Errorf("oracle: snapshot v%d: %w", s.version, err)
	}
	res.Reachable, res.Path, res.Cost = true, path, cost
	return res, nil
}
