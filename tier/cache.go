package tier

import (
	"container/list"
	"context"
	"sync"

	"github.com/congestedclique/cliqueapsp/obs/trace"
)

// rowCache is a bounded LRU over decoded distance rows with single-flight
// loads: the first goroutine to miss a row becomes its loader, later
// arrivals block on the same flight and share the result. Load errors are
// never cached — a transient I/O failure must not poison a row forever —
// and waiters joining a flight count as hits (only the leader touched
// disk).
//
// The cache owns its rows, so a cold miss allocates nothing that grows with
// n. An evicted row moves to a free list and the next miss decodes into it;
// each load preads into a byte scratch taken from a second free list, one
// per load in flight. A row handed out by row is flagged shared and is
// never recycled: its holder may keep it forever. entry reads one value
// under the lock instead, and visit lends the row to a callback, so the
// rows they read stay with the cache. A row a visitor or a flight's
// waiter has yet to finish with is pinned: evicting it defers the recycle
// to the last of them.
type rowCache struct {
	load  func(u int, buf []byte, row []int64) error
	n     int // entries per row
	width int // bytes per encoded row

	mu       sync.Mutex
	cap      int
	ll       *list.List            // MRU at front
	rows     map[int]*list.Element // row id → element, Value is *rowEntry
	inflight map[int]*flight       // row id → pending load
	free     [][]int64             // evicted rows no caller holds, at most cap
	bufs     [][]byte              // pread scratch of finished loads, at most cap
	hits     uint64
	misses   uint64
	evicted  uint64
}

type rowEntry struct {
	u       int
	row     []int64
	shared  bool // handed out by row: never recycled
	pins    int  // readers still due to read row: loader, flight waiters, visitors
	evicted bool
}

// flight is one in-progress row load. done closes after e/err are set.
// waiters counts the goroutines that joined it; both it and e are guarded
// by the cache lock.
type flight struct {
	done    chan struct{}
	e       *rowEntry
	err     error
	waiters int
}

func newRowCache(cap, n, width int, load func(u int, buf []byte, row []int64) error) *rowCache {
	return &rowCache{
		load:     load,
		n:        n,
		width:    width,
		cap:      cap,
		ll:       list.New(),
		rows:     make(map[int]*list.Element),
		inflight: make(map[int]*flight),
	}
}

// pin resolves row u and pins its entry for the caller, who reads it and
// then unpins it: a resident hit, or a fetch that joins a flight or leads a
// load. On success it returns with c.mu held and reports whether the row
// was resident; on failure the lock is dropped.
func (c *rowCache) pin(ctx context.Context, u int) (e *rowEntry, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.rows[u]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		e = el.Value.(*rowEntry)
		e.pins++
		return e, true, nil
	}
	if e, err = c.fetch(ctx, u); err != nil {
		c.mu.Unlock()
	}
	return e, false, err
}

// hitEvent records a resident hit on ctx's active trace span, after the
// cache lock drops. A miss or a flight join recorded its own event in fetch.
func hitEvent(ctx context.Context, hit bool) {
	if hit {
		trace.FromContext(ctx).Event("row_cache.hit")
	}
}

// row resolves row u and hands it out: the row is flagged shared, so it
// stays valid after eviction. ctx's active trace span (if any) records which
// of the three paths answered: resident hit, single-flight join, or leader
// miss (which additionally records the pread as its own span). On an
// unsampled context every trace call is a nil no-op.
func (c *rowCache) row(ctx context.Context, u int) ([]int64, error) {
	e, hit, err := c.pin(ctx, u)
	if err != nil {
		return nil, err
	}
	e.shared = true
	c.unpin(e)
	c.mu.Unlock()
	hitEvent(ctx, hit)
	return e.row, nil
}

// entry resolves entry v of row u under the cache lock, so no caller ever
// holds a row the cache may recycle. Its trace events are row's.
func (c *rowCache) entry(ctx context.Context, u, v int) (int64, error) {
	e, hit, err := c.pin(ctx, u)
	if err != nil {
		return 0, err
	}
	d := e.row[v]
	c.unpin(e)
	c.mu.Unlock()
	hitEvent(ctx, hit)
	return d, nil
}

// visit resolves row u and runs fn over it outside the lock. The row stays
// pinned while fn runs, so an eviction meanwhile defers its recycle to the
// unpin, and it is never flagged shared: the cache keeps ownership. Its
// trace events are row's.
func (c *rowCache) visit(ctx context.Context, u int, fn func(row []int64)) error {
	e, hit, err := c.pin(ctx, u)
	if err != nil {
		return err
	}
	c.mu.Unlock()
	hitEvent(ctx, hit)
	fn(e.row)
	c.mu.Lock()
	c.unpin(e)
	c.mu.Unlock()
	return nil
}

// fetch resolves a non-resident row u by joining its flight or leading a
// new one. It is called and returns with c.mu held, dropping the lock while
// it waits or loads. On success the entry comes back pinned for the caller.
func (c *rowCache) fetch(ctx context.Context, u int) (*rowEntry, error) {
	sp := trace.FromContext(ctx)
	if fl, ok := c.inflight[u]; ok {
		c.hits++
		fl.waiters++
		c.mu.Unlock()
		sp.Event("row_cache.wait")
		<-fl.done
		c.mu.Lock()
		return fl.e, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[u] = fl
	c.misses++
	row, buf := c.take()
	c.mu.Unlock()
	sp.Event("row_cache.miss")
	if row == nil {
		row = make([]int64, c.n)
	}
	if buf == nil {
		buf = make([]byte, c.width)
	}

	_, psp := trace.StartSpan(ctx, "tier.pread")
	err := c.load(u, buf, row)
	psp.SetError(err)
	psp.End()

	c.mu.Lock()
	delete(c.inflight, u)
	if len(c.bufs) < c.cap {
		c.bufs = append(c.bufs, buf)
	}
	if err != nil {
		// Nobody saw the half-decoded row, so it serves the next miss.
		c.recycle(row)
		fl.err = err
	} else {
		fl.e = &rowEntry{u: u, row: row, pins: 1 + fl.waiters}
		c.rows[u] = c.ll.PushFront(fl.e)
		for c.ll.Len() > c.cap {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			old := oldest.Value.(*rowEntry)
			delete(c.rows, old.u)
			c.evicted++
			old.evicted = true
			if old.pins == 0 && !old.shared {
				c.recycle(old.row)
			}
		}
	}
	close(fl.done)
	return fl.e, fl.err
}

// take pops a free row and a free pread scratch; either is nil when its
// list is empty. c.mu must be held.
func (c *rowCache) take() (row []int64, buf []byte) {
	if k := len(c.free); k > 0 {
		row, c.free = c.free[k-1], c.free[:k-1]
	}
	if k := len(c.bufs); k > 0 {
		buf, c.bufs = c.bufs[k-1], c.bufs[:k-1]
	}
	return row, buf
}

// recycle returns a row no caller holds to the free list, dropping it once
// the list holds cap rows. c.mu must be held.
func (c *rowCache) recycle(row []int64) {
	if len(c.free) < c.cap {
		c.free = append(c.free, row)
	}
}

// unpin records that one reader of e is done. The last reader of a row
// evicted while pinned recycles it, unless it was handed out. c.mu must be
// held.
func (c *rowCache) unpin(e *rowEntry) {
	e.pins--
	if e.pins == 0 && e.evicted && !e.shared {
		c.recycle(e.row)
	}
}

func (c *rowCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicted,
		Resident:  c.ll.Len(),
		Capacity:  c.cap,
	}
}
