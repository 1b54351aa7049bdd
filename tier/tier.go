// Package tier serves distance rows straight off persisted snapshot files.
//
// The paper's algorithms are expensive precomputations; the artifact they
// produce is a flat n×n int64 matrix whose rows are fixed-width. That makes
// the serve side embarrassingly cheap: row u of a persisted snapshot lives
// at a computable byte offset, so answering a Dist query for a tenant whose
// matrix is not resident costs one pread of 8n bytes — not an O(n²) decode.
//
// Reader is the unit of that idea: it opens one snapshot file, locates the
// row block by one short streaming pass over the file's own header
// (store.DecodeLayout), and serves rows through a bounded hot-row LRU cache
// with single-flight loads, so a burst of queries for the same source pays
// for one disk read. The graph itself — needed only by Path queries —
// decodes lazily from the edge block.
//
// The cache owns its rows, and at most its capacity of them are resident.
// EntryCtx reads one entry under the cache lock and VisitRowCtx lends a
// pinned row to a callback, so a query never keeps a cached row: an
// evicted row is recycled, and a miss preads into a reused scratch buffer
// and decodes into that recycled row, allocating nothing that grows with n.
// Row hands a row out instead; the cache never reuses a row it has handed
// out.
//
// The oracle package builds its cold serving tier on top: an evicted tenant
// demotes to a Reader instead of dropping, and rehydration becomes cache
// warming (see oracle.Manager and cmd/ccserve's -coldcache flag).
package tier

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
	"github.com/congestedclique/cliqueapsp/obs/trace"
	"github.com/congestedclique/cliqueapsp/store"
)

// Reader serves distance rows of one persisted snapshot directly from disk.
// All methods are safe for concurrent use. Rows returned by Row are shared
// with the cache and other callers: they are read-only, and stay valid
// after eviction.
type Reader struct {
	f     *os.File
	ix    store.RowIndex
	cache *rowCache

	// The graph decodes lazily (only Path queries need it) and failures are
	// retryable, so this is a mutex + nil check rather than a sync.Once.
	gmu   sync.Mutex
	graph *cliqueapsp.Graph
}

// Open prepares a Reader over the snapshot at snapPath, reading its row
// index from the file's header — no edge or row bytes are touched.
// cacheRows bounds the hot-row cache (minimum 1). A header that does not
// decode fails as store.DecodeLayout does, a snapshot whose size disagrees
// with its header fails with store.ErrCorrupt, and a missing snapshot fails
// with store.ErrNotFound.
func Open(snapPath string, cacheRows int) (*Reader, error) {
	f, err := os.Open(snapPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", store.ErrNotFound, snapPath)
		}
		return nil, fmt.Errorf("tier: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tier: %w", err)
	}
	ix, err := store.DecodeLayout(io.NewSectionReader(f, 0, st.Size()))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", snapPath, err)
	}
	if ix.Size != st.Size() {
		f.Close()
		return nil, fmt.Errorf("%s: %w: file is %d bytes, header implies %d",
			snapPath, store.ErrCorrupt, st.Size(), ix.Size)
	}

	if cacheRows < 1 {
		cacheRows = 1
	}
	r := &Reader{f: f, ix: *ix}
	r.cache = newRowCache(cacheRows, ix.N, int(ix.RowWidth), r.loadRow)
	return r, nil
}

// Index returns a copy of the reader's row index — the snapshot's
// provenance (version, algorithm, seed, …) plus its row layout.
func (r *Reader) Index() store.RowIndex { return r.ix }

// N returns the snapshot's node count.
func (r *Reader) N() int { return r.ix.N }

// Version returns the oracle snapshot version the file was published under.
func (r *Reader) Version() uint64 { return r.ix.Version }

// Row returns distance row u — every entry of the published estimate with
// source u, minplus.Inf marking unreachable. The row comes from the hot-row
// cache when resident and from one pread otherwise; concurrent requests for
// the same non-resident row share a single load. The returned slice is
// shared with the cache and other callers, so callers must not modify it;
// the cache never reuses a row it has handed out, so the slice stays valid
// after the row is evicted. A caller that wants one entry should use
// EntryCtx, which leaves the row with the cache.
func (r *Reader) Row(u int) ([]int64, error) {
	return r.RowCtx(context.Background(), u)
}

// RowCtx is Row with a caller context: when ctx carries an active trace
// span (a sampled request), the read records a "tier.row" child span
// with a cache hit/miss/wait event and — on the single-flight leader —
// a "tier.pread" span around the disk read. On an unsampled context the
// tracing calls are nil no-ops, costing zero allocations. ctx does not
// cancel the read.
func (r *Reader) RowCtx(ctx context.Context, u int) ([]int64, error) {
	if u < 0 || u >= r.ix.N {
		return nil, fmt.Errorf("tier: row %d out of range for n=%d", u, r.ix.N)
	}
	ctx, sp := trace.StartSpan(ctx, "tier.row")
	sp.SetInt("row", int64(u))
	row, err := r.cache.row(ctx, u)
	sp.SetError(err)
	sp.End()
	return row, err
}

// EntryCtx returns entry (u, v) of the published estimate, minplus.Inf
// marking unreachable. It resolves row u exactly as RowCtx does — the same
// cache, single-flight, counters and trace spans — but reads the one entry
// under the cache lock, so the row stays the cache's own and a miss decodes
// into a recycled row instead of allocating one.
func (r *Reader) EntryCtx(ctx context.Context, u, v int) (int64, error) {
	if u < 0 || u >= r.ix.N || v < 0 || v >= r.ix.N {
		return 0, fmt.Errorf("tier: entry (%d,%d) out of range for n=%d", u, v, r.ix.N)
	}
	ctx, sp := trace.StartSpan(ctx, "tier.row")
	sp.SetInt("row", int64(u))
	d, err := r.cache.entry(ctx, u, v)
	sp.SetError(err)
	sp.End()
	return d, err
}

// VisitRowCtx resolves row u exactly as RowCtx does — the same cache,
// single-flight, counters and trace spans — and runs fn over it. The row
// stays the cache's own: it is pinned while fn runs, so an eviction
// meanwhile cannot recycle it under fn, and a miss decodes into a recycled
// row instead of allocating one. fn must not keep the slice or modify it,
// and runs without the cache lock held. A read error returns before fn is
// called.
func (r *Reader) VisitRowCtx(ctx context.Context, u int, fn func(row []int64)) error {
	if u < 0 || u >= r.ix.N {
		return fmt.Errorf("tier: row %d out of range for n=%d", u, r.ix.N)
	}
	ctx, sp := trace.StartSpan(ctx, "tier.row")
	sp.SetInt("row", int64(u))
	err := r.cache.visit(ctx, u, fn)
	sp.SetError(err)
	sp.End()
	return err
}

// loadRow preads row u into buf and decodes and validates it into row. It
// is only ever invoked by the cache's single-flight leader for a
// non-resident row, with buf of RowWidth bytes and row of n entries, both
// owned by that load.
func (r *Reader) loadRow(u int, buf []byte, row []int64) error {
	if _, err := r.f.ReadAt(buf, r.ix.RowOffset+int64(u)*r.ix.RowWidth); err != nil {
		return fmt.Errorf("tier: reading row %d of %s: %w", u, r.f.Name(), err)
	}
	if err := minplus.DecodeRowBytes(row, buf); err != nil {
		return err
	}
	// Rows read straight off disk bypass the snapshot codec's checksum, so
	// validate the one structural invariant distances have: every entry in
	// [0, Inf]. A flipped sign bit or garbage write fails here instead of
	// flowing into an answer.
	for i, d := range row {
		if d < 0 || d > minplus.Inf {
			return fmt.Errorf("%w: row %d entry %d holds impossible distance %d",
				store.ErrCorrupt, u, i, d)
		}
	}
	return nil
}

// Graph decodes and returns the snapshot's input graph. The decode runs at
// most once per reader on success and is retried on failure; only Path
// queries ever need it, so a cold tenant serving pure Dist/Batch traffic
// never pays the O(m) parse.
func (r *Reader) Graph() (*cliqueapsp.Graph, error) {
	return r.GraphCtx(context.Background())
}

// GraphCtx is Graph with a caller context: a sampled request that forces
// the lazy decode records it as a "tier.graph_decode" span — the O(m)
// parse is exactly the kind of hidden first-query cost a trace exists to
// surface. A decode already done records nothing.
func (r *Reader) GraphCtx(ctx context.Context) (*cliqueapsp.Graph, error) {
	r.gmu.Lock()
	defer r.gmu.Unlock()
	if r.graph != nil {
		return r.graph, nil
	}
	_, sp := trace.StartSpan(ctx, "tier.graph_decode")
	sp.SetInt("m", int64(r.ix.M))
	sec := io.NewSectionReader(r.f, r.ix.EdgesOffset(), 16*int64(r.ix.M))
	g, err := store.DecodeEdgeBlock(sec, r.ix.N, r.ix.M)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return nil, fmt.Errorf("%s: %w", r.f.Name(), err)
	}
	sp.End()
	r.graph = g
	return g, nil
}

// CacheStats is a point-in-time snapshot of the hot-row cache.
type CacheStats struct {
	// Hits counts Row, EntryCtx and VisitRowCtx calls served without a
	// disk read — resident rows plus waiters that joined an in-flight load,
	// each once.
	// Misses counts loads that went to disk, failed ones included.
	// Evictions counts rows dropped to stay within Capacity.
	Hits, Misses, Evictions uint64
	// Resident is the number of rows currently cached; it never exceeds
	// Capacity. For reuse the cache also keeps up to Capacity evicted rows
	// and as many 8n-byte pread buffers: one of each per load in flight at
	// the busiest moment. Rows Row has handed out are not counted; they
	// live as long as their callers hold them.
	Resident int
	Capacity int
}

// Stats returns current cache counters.
func (r *Reader) Stats() CacheStats { return r.cache.stats() }

// Close releases the underlying file. Callers that have published the
// reader for concurrent use must not call Close while queries may still be
// in flight; the serving stack instead drops its last reference and lets
// the file close with the reader (queries racing a demotion keep their
// snapshot handle alive until they finish).
func (r *Reader) Close() error { return r.f.Close() }
