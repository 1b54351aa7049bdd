package tier_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/store"
	"github.com/congestedclique/cliqueapsp/tier"
)

// persistSnapshot saves one exact-distance snapshot for tenant "alpha" and
// returns the store, the snapshot, and the snapshot's path.
func persistSnapshot(t *testing.T, g *cliqueapsp.Graph, version uint64) (*tier.Store, *store.Snapshot, string) {
	t.Helper()
	d, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(g, version)
	if err := d.Save("alpha", snap); err != nil {
		t.Fatal(err)
	}
	snapPath, err := d.SnapshotPath("alpha", version)
	if err != nil {
		t.Fatal(err)
	}
	return tier.NewStore(d), snap, snapPath
}

// testSnapshot is the exact-distance snapshot of g published as version.
func testSnapshot(g *cliqueapsp.Graph, version uint64) *store.Snapshot {
	return &store.Snapshot{
		Version:     version,
		Algorithm:   "tier-test",
		FactorBound: 1,
		Eps:         0.25,
		Seed:        7,
		SeedPinned:  true,
		Engine:      cliqueapsp.EngineVersion,
		Graph:       g,
		Distances:   cliqueapsp.Exact(g),
	}
}

func checkRows(t *testing.T, r *tier.Reader, snap *store.Snapshot) {
	t.Helper()
	n := snap.Graph.N()
	for u := 0; u < n; u++ {
		row, err := r.Row(u)
		if err != nil {
			t.Fatalf("Row(%d): %v", u, err)
		}
		if len(row) != n {
			t.Fatalf("Row(%d) has %d entries, want %d", u, len(row), n)
		}
		if err := rowEquals(row, snap, u); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReaderRowsMatchSnapshot(t *testing.T) {
	g := cliqueapsp.RandomGraph(24, 40, 3)
	ts, snap, _ := persistSnapshot(t, g, 5)
	r, err := ts.OpenCold("alpha", 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ix := r.Index()
	if ix.Version != 5 || ix.Algorithm != "tier-test" || ix.N != 24 || !ix.SeedPinned {
		t.Fatalf("index provenance %+v", ix)
	}
	checkRows(t, r, snap)
}

// The file itself is the source of truth, so truncation fails the open with
// ErrCorrupt.
func TestReaderTruncatedSnapshotFails(t *testing.T) {
	ts, _, snapPath := persistSnapshot(t, cliqueapsp.RandomGraph(12, 18, 4), 1)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, raw[:len(raw)-64], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.OpenCold("alpha", 1, 4); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("open of truncated snapshot: %v, want ErrCorrupt", err)
	}
}

// Row reads bypass the snapshot checksum, so the reader validates each
// decoded entry instead: garbage inside a row surfaces as ErrCorrupt on
// that row while every other row keeps serving.
func TestReaderCorruptRowSurfaces(t *testing.T) {
	ts, snap, snapPath := persistSnapshot(t, cliqueapsp.RandomGraph(10, 15, 2), 1)
	corruptRow(t, snap, snapPath, 3)

	r, err := ts.OpenCold("alpha", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Row(3); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("corrupt row read: %v, want ErrCorrupt", err)
	}
	if row, err := r.Row(4); err != nil || row[0] != snap.Distances.At(4, 0) {
		t.Fatalf("healthy row after corrupt one: %v, %v", row, err)
	}
}

// corruptRow overwrites the first entry of row u in the snapshot file with
// all-ones bytes, which decode to -1: an impossible distance.
func corruptRow(t *testing.T, snap *store.Snapshot, snapPath string, u int) {
	t.Helper()
	ix, err := store.IndexOf(snap)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(snapPath, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		ix.RowOffset+int64(u)*ix.RowWidth); err != nil {
		t.Fatal(err)
	}
}

// A corrupt row fails on every read and never enters the cache. The row
// its failed load decoded into goes back to the free list, so the next miss
// reuses it — allocating less than a row — and serves correct values.
func TestReaderCorruptRowRecycled(t *testing.T) {
	const n = 256 // a row is 2 KiB, well above a miss's fixed allocations
	ts, snap, snapPath := persistSnapshot(t, cliqueapsp.RandomGraph(n, 20, 6), 1)
	corruptRow(t, snap, snapPath, 3)
	r, err := ts.OpenCold("alpha", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	for i := 1; i <= 3; i++ {
		if _, err := r.EntryCtx(ctx, 3, 0); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("corrupt entry read %d: %v, want ErrCorrupt", i, err)
		}
		if st := r.Stats(); st.Misses != uint64(i) || st.Resident != 0 {
			t.Fatalf("after corrupt read %d: %+v, want %d misses and nothing resident", i, st, i)
		}
	}
	if _, err := r.Row(3); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("corrupt row read: %v, want ErrCorrupt", err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := r.EntryCtx(ctx, 4, 0)
	runtime.ReadMemStats(&after)
	if err != nil || d != snap.Distances.At(4, 0) {
		t.Fatalf("entry (4,0) after the corrupt row = %d, %v; want %d", d, err, snap.Distances.At(4, 0))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8*n/2 {
		t.Fatalf("miss after the corrupt row allocated %d bytes: the failed load's row was not reused", grew)
	}
	for v := 0; v < n; v++ {
		if d, err := r.EntryCtx(ctx, 4, v); err != nil || d != snap.Distances.At(4, v) {
			t.Fatalf("entry (4,%d) = %d, %v; want %d", v, d, err, snap.Distances.At(4, v))
		}
	}
}

func TestReaderVersionMismatch(t *testing.T) {
	ts, _, snapPath := persistSnapshot(t, cliqueapsp.RandomGraph(8, 9, 1), 2)
	if err := ts.Save("alpha", testSnapshot(cliqueapsp.RandomGraph(8, 9, 1), 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.OpenCold("alpha", 9, 4); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("open of absent version: %v, want ErrNotFound", err)
	}
	if _, err := ts.OpenCold("ghost", 2, 4); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("open of absent tenant: %v, want ErrNotFound", err)
	}

	// A misplaced file — the name claims v9, the header records v2 — is
	// corruption, not a valid open: the header is the file's own word.
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	misplaced, err := ts.SnapshotPath("alpha", 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(misplaced, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.OpenCold("alpha", 9, 4); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("open of misplaced snapshot: %v, want ErrCorrupt", err)
	}

	// The same holds when the name's rightful file existed: v1's bytes
	// copied over v2's (same graph, so the same size) must not open as v2.
	v1Path, err := ts.SnapshotPath("alpha", 1)
	if err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(v1Path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.OpenCold("alpha", 2, 4); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("open of v1's bytes under v2's name: %v, want ErrCorrupt", err)
	}
}

func TestReaderRowOutOfRange(t *testing.T) {
	ts, _, _ := persistSnapshot(t, cliqueapsp.RandomGraph(8, 9, 1), 1)
	r, err := ts.OpenCold("alpha", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, u := range []int{-1, 8, 1000} {
		if _, err := r.Row(u); err == nil {
			t.Fatalf("Row(%d) accepted for n=8", u)
		}
	}
}

// TestReaderCacheBoundsResident pins the memory bound the -coldcache flag
// promises: however many distinct rows are read, at most cacheRows stay
// resident, with the overflow counted as evictions and repeats as hits.
func TestReaderCacheBoundsResident(t *testing.T) {
	ts, snap, _ := persistSnapshot(t, cliqueapsp.RandomGraph(16, 24, 5), 1)
	r, err := ts.OpenCold("alpha", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkRows(t, r, snap) // 16 distinct rows through a 4-row cache

	st := r.Stats()
	if st.Capacity != 4 || st.Resident > 4 {
		t.Fatalf("cache %+v, want ≤ 4 resident of capacity 4", st)
	}
	if st.Misses != 16 || st.Evictions != 12 {
		t.Fatalf("cache %+v, want 16 misses and 12 evictions", st)
	}

	// Row 15 is MRU-resident: re-reading it is a hit, not a disk read.
	if _, err := r.Row(15); err != nil {
		t.Fatal(err)
	}
	if st = r.Stats(); st.Hits != 1 || st.Misses != 16 {
		t.Fatalf("cache after resident re-read %+v, want 1 hit", st)
	}
}

// TestReaderSingleFlight hammers a handful of rows from many goroutines,
// alternating Row and EntryCtx: with a cache big enough to hold them, each
// row must hit the disk exactly once — concurrent requests for a loading
// row join its flight, and each waiter counts once as a hit.
func TestReaderSingleFlight(t *testing.T) {
	ts, _, _ := persistSnapshot(t, cliqueapsp.RandomGraph(16, 24, 5), 1)
	r, err := ts.OpenCold("alpha", 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const rows, workers, loops = 5, 16, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				u := (w + i) % rows
				var d int64
				if i%2 == 0 {
					row, err := r.Row(u)
					if err != nil {
						errs <- err
						return
					}
					d = row[u]
				} else {
					var err error
					if d, err = r.EntryCtx(context.Background(), u, u); err != nil {
						errs <- err
						return
					}
				}
				if d != 0 {
					errs <- errors.New("row self-distance not 0")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Misses != rows {
		t.Fatalf("%d disk reads for %d distinct rows: %+v", st.Misses, rows, st)
	}
	if want := uint64(workers*loops - rows); st.Hits != want {
		t.Fatalf("hits %d, want %d", st.Hits, want)
	}
}

// TestReaderRecyclingConcurrent mixes EntryCtx, VisitRowCtx and Row over 16
// rows through a 2-row cache from 8 goroutines, so rows are evicted,
// recycled and joined mid-flight constantly. Every entry and every visited
// row must equal the snapshot's, and every row Row handed out must still
// equal it after the goroutine's later reads have recycled other rows: a
// handed-out row, a row a visitor is reading or a row a waiter has yet to
// read that went back to the free list shows up as a wrong value (and as a
// data race under -race).
func TestReaderRecyclingConcurrent(t *testing.T) {
	const rows, workers, loops = 16, 8, 300
	ts, snap, _ := persistSnapshot(t, cliqueapsp.RandomGraph(rows, 30, 9), 1)
	r, err := ts.OpenCold("alpha", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			var held [][]int64 // rows Row handed out, re-checked at the end
			var heldU []int
			for i := 0; i < loops; i++ {
				u, v := (w*5+i*3)%rows, (w+i*7)%rows
				if i%4 == 0 {
					row, err := r.Row(u)
					if err != nil {
						t.Error(err)
						return
					}
					held, heldU = append(held, row), append(heldU, u)
					continue
				}
				if i%4 == 1 {
					var bad error
					if err := r.VisitRowCtx(ctx, u, func(row []int64) { bad = rowEquals(row, snap, u) }); err != nil || bad != nil {
						t.Errorf("worker %d: visit of row %d: %v, %v", w, u, err, bad)
						return
					}
					continue
				}
				d, err := r.EntryCtx(ctx, u, v)
				if err != nil {
					t.Error(err)
					return
				}
				if want := snap.Distances.At(u, v); d != want {
					t.Errorf("worker %d: entry (%d,%d) = %d, want %d", w, u, v, d, want)
					return
				}
			}
			for k, row := range held {
				if err := rowEquals(row, snap, heldU[k]); err != nil {
					t.Errorf("worker %d: held %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := r.Stats(); st.Resident > 2 || st.Evictions == 0 {
		t.Fatalf("cache %+v, want ≤ 2 resident and evictions", st)
	}
}

// rowEquals reports whether row is row u of the snapshot's estimate.
func rowEquals(row []int64, snap *store.Snapshot, u int) error {
	for v, d := range row {
		if want := snap.Distances.At(u, v); d != want {
			return fmt.Errorf("row %d entry %d = %d, want %d", u, v, d, want)
		}
	}
	return nil
}

// A row Row handed out is never recycled: after it is evicted and 100
// further misses have loaded through EntryCtx (which decodes into recycled
// rows), it is still byte-identical to the snapshot's row.
func TestReaderHandedOutRowSurvivesEviction(t *testing.T) {
	const n = 24
	ts, snap, _ := persistSnapshot(t, cliqueapsp.RandomGraph(n, 40, 3), 1)
	r, err := ts.OpenCold("alpha", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	row, err := r.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	// Hit it again too: a resident hit hands the row out as well.
	hit, err := r.Row(0)
	if err != nil || &hit[0] != &row[0] {
		t.Fatalf("resident re-read: %v, %v", hit, err)
	}
	for i := 0; i < 100; i++ {
		u := 1 + i%(n-1)
		if _, err := r.EntryCtx(ctx, u, i%n); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.Misses != 101 {
		t.Fatalf("cache %+v, want 101 misses (every EntryCtx a miss)", st)
	}
	if err := rowEquals(row, snap, 0); err != nil {
		t.Fatalf("handed-out row changed after eviction: %v", err)
	}
}

// TestEntryMissAllocation pins what a cold entry miss costs at n=1024: once
// the cache is full, a miss decodes into a recycled row through a recycled
// pread scratch, so 1,000 misses raise TotalAlloc by less than 1 KiB each —
// a freshly allocated row and scratch would be 16 KiB.
func TestEntryMissAllocation(t *testing.T) {
	r := benchReader(t)
	ctx := context.Background()
	n := r.N()
	// Fill the 64-row cache and let evictions stock the free lists.
	for u := 0; u < 128; u++ {
		if _, err := r.EntryCtx(ctx, u, 0); err != nil {
			t.Fatal(err)
		}
	}
	const misses = 1000
	st := r.Stats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < misses; i++ {
		if _, err := r.EntryCtx(ctx, (128+i)%n, i%n); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := r.Stats().Misses - st.Misses; got != misses {
		t.Fatalf("%d misses, want %d (every read a miss)", got, misses)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / misses; per >= 1024 {
		t.Fatalf("an entry miss allocated %d bytes, want < 1 KiB", per)
	}
}

// TestReaderGraphLazy exercises the Path-query dependency: the graph
// decodes from the edge block on first use and comes back identical.
func TestReaderGraphLazy(t *testing.T) {
	g := cliqueapsp.RandomGraph(12, 18, 4)
	ts, _, _ := persistSnapshot(t, g, 1)
	r, err := ts.OpenCold("alpha", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	got, err := r.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("decoded graph %d/%d, want %d/%d", got.N(), got.NumEdges(), g.N(), g.NumEdges())
	}
	// Same distances from the decoded graph: the edge block round-tripped.
	want := cliqueapsp.Exact(g)
	if have := cliqueapsp.Exact(got); !sameMatrix(have, want) {
		t.Fatal("decoded graph yields different exact distances")
	}
	again, err := r.Graph()
	if err != nil || again != got {
		t.Fatalf("second Graph() = %p, %v — want the memoized %p", again, err, got)
	}
}

func sameMatrix(a, b *cliqueapsp.DistanceMatrix) bool {
	if a.N() != b.N() {
		return false
	}
	for u := 0; u < a.N(); u++ {
		for v := 0; v < a.N(); v++ {
			if a.At(u, v) != b.At(u, v) {
				return false
			}
		}
	}
	return true
}

// TestVisitedRowPinnedAcrossEviction lends row 0 to a visitor that misses
// on four more rows through a 2-row cache. Row 0 is evicted by the second
// of them and its neighbours are recycled meanwhile, but the visitor's view
// must stay row 0 until it returns; only then does the row go back to the
// free list, and the next miss decodes into it.
func TestVisitedRowPinnedAcrossEviction(t *testing.T) {
	const n = 24
	ts, snap, _ := persistSnapshot(t, cliqueapsp.RandomGraph(n, 40, 3), 1)
	r, err := ts.OpenCold("alpha", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	var seen []int64
	err = r.VisitRowCtx(ctx, 0, func(row []int64) {
		seen = row // kept past the visit only to watch the recycle below
		for u := 1; u <= 4; u++ {
			if _, err := r.EntryCtx(ctx, u, 0); err != nil {
				t.Fatal(err)
			}
			if err := rowEquals(row, snap, 0); err != nil {
				t.Fatalf("visited row after the miss on row %d: %v", u, err)
			}
		}
		if st := r.Stats(); st.Evictions != 3 || st.Resident != 2 {
			t.Fatalf("cache %+v inside the visit, want 3 evictions and 2 resident", st)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.EntryCtx(ctx, 5, 0); err != nil {
		t.Fatal(err)
	}
	if err := rowEquals(seen, snap, 5); err != nil {
		t.Fatalf("row 0's storage was not recycled into the next miss: %v", err)
	}
	if err := r.VisitRowCtx(ctx, n, func([]int64) { t.Fatal("visited an out-of-range row") }); err == nil {
		t.Fatalf("VisitRowCtx(%d) accepted for n=%d", n, n)
	}
}

// benchReader opens a reader with ccserve's default 64-row cache over a
// persisted n=1024 snapshot, an 8 MiB matrix. The distances are filler: a
// row read costs the same whatever the values.
func benchReader(b testing.TB) *tier.Reader {
	const n = 1024
	dist, err := cliqueapsp.DistancesFromRows(n, func(u int, dst []int64) error {
		for v := range dst {
			dst[v] = int64((u*31+v*7)%1000 + 1)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	snap := &store.Snapshot{Version: 1, Algorithm: "bench", FactorBound: 1,
		Engine: cliqueapsp.EngineVersion, Graph: cliqueapsp.RandomGraph(n, 100, 1), Distances: dist}
	if err := d.Save("bench", snap); err != nil {
		b.Fatal(err)
	}
	r, err := tier.NewStore(d).OpenCold("bench", 1, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r
}

// BenchmarkRowMiss is one cold row read: the rows are swept in order, so
// with 64 of 1024 rows cached every read is a pread plus a row decode.
func BenchmarkRowMiss(b *testing.B) {
	r := benchReader(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Row(i % r.N()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRowHit is one hot-row cache hit: the lookups cycle over the 64
// rows a warm-up pass left resident.
func BenchmarkRowHit(b *testing.B) {
	r := benchReader(b)
	const cached = 64
	for u := 0; u < cached; u++ {
		if _, err := r.Row(u); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Row(i % cached); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := r.Stats(); st.Misses != cached {
		b.Fatalf("%d row loads for %d distinct rows", st.Misses, cached)
	}
}

// BenchmarkEntryMiss is one cold entry read: the rows are swept in order, so
// with 64 of 1024 rows cached every read is a pread and a row decode into a
// recycled row.
func BenchmarkEntryMiss(b *testing.B) {
	r := benchReader(b)
	ctx := context.Background()
	n := r.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.EntryCtx(ctx, i%n, (i*7)%n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEntryHit is one resident entry read: the lookups cycle over the
// 64 rows a warm-up pass left resident.
func BenchmarkEntryHit(b *testing.B) {
	r := benchReader(b)
	ctx := context.Background()
	const cached = 64
	for u := 0; u < cached; u++ {
		if _, err := r.EntryCtx(ctx, u, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.EntryCtx(ctx, i%cached, i%r.N()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := r.Stats(); st.Misses != cached {
		b.Fatalf("%d row loads for %d distinct rows", st.Misses, cached)
	}
}
