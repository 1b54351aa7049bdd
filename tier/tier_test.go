package tier_test

import (
	"errors"
	"os"
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
		for v := 0; v < n; v++ {
			if row[v] != snap.Distances.At(u, v) {
				t.Fatalf("row %d entry %d = %d, want %d", u, v, row[v], snap.Distances.At(u, v))
			}
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
	ix, err := store.IndexOf(snap)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(snapPath, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// All-ones bytes decode to -1: an impossible distance.
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		ix.RowOffset+3*ix.RowWidth); err != nil {
		t.Fatal(err)
	}
	f.Close()

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

// TestReaderSingleFlight hammers a handful of rows from many goroutines:
// with a cache big enough to hold them, each row must hit the disk exactly
// once — concurrent requests for a loading row join its flight.
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
				row, err := r.Row(u)
				if err != nil {
					errs <- err
					return
				}
				if row[u] != 0 {
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

// TestNextHopRowFromOverReader ties the routing building block to the disk
// tier: next-hop rows computed through Reader.Row must equal the ones
// computed from the resident matrix, so hot and cold Path answers agree.
func TestNextHopRowFromOverReader(t *testing.T) {
	g := cliqueapsp.RandomGraph(14, 30, 8)
	ts, snap, _ := persistSnapshot(t, g, 1)
	r, err := ts.OpenCold("alpha", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for src := 0; src < g.N(); src++ {
		want, err := cliqueapsp.NextHopRow(g, snap.Distances, src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cliqueapsp.NextHopRowFrom(g, src, r.Row)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("next hop (%d,%d): cold %d, hot %d", src, v, got[v], want[v])
			}
		}
	}
}

// benchReader opens a reader with ccserve's default 64-row cache over a
// persisted n=1024 snapshot, an 8 MiB matrix. The distances are filler: a
// row read costs the same whatever the values.
func benchReader(b *testing.B) *tier.Reader {
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
