package store_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/store"
)

// TestIndexOfMatchesEncodedBytes is the layout-vs-encode property the whole
// tier package stands on: the arithmetic index computed from a snapshot's
// header must point exactly at the rows Encode writes — row u's entry for v
// sits at RowOffset + u×RowWidth + 8v, and Size is the encoded length — and
// Decode reads the same matrix back. The n=1024 case is the 8 MiB matrix
// the serving benchmarks use; its distances come from cliqueapsp.Exact
// rather than a simulated engine run, which would take seconds.
func TestIndexOfMatchesEncodedBytes(t *testing.T) {
	g := cliqueapsp.RandomGraph(1024, 100, 1)
	big := &store.Snapshot{Version: 4, Algorithm: string(cliqueapsp.AlgExact), FactorBound: 1,
		Engine: cliqueapsp.EngineVersion, Graph: g, Distances: cliqueapsp.Exact(g)}
	for _, snap := range []*store.Snapshot{buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(13, 20, 6), 4), big} {
		raw := encodeToBytes(t, snap)

		ix, err := store.IndexOf(snap)
		if err != nil {
			t.Fatal(err)
		}
		n := snap.Graph.N()
		if ix.Size != int64(len(raw)) || ix.Size <= 8*int64(n)*int64(n) {
			t.Fatalf("n=%d: index size %d, encoded %d bytes", n, ix.Size, len(raw))
		}
		if ix.N != n || ix.M != snap.Graph.NumEdges() || ix.RowWidth != 8*int64(n) {
			t.Fatalf("index dimensions %+v for n=%d m=%d", ix, n, snap.Graph.NumEdges())
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				off := ix.RowOffset + int64(u)*ix.RowWidth + 8*int64(v)
				got := int64(binary.LittleEndian.Uint64(raw[off : off+8]))
				if want := snap.Distances.At(u, v); got != want {
					t.Fatalf("n=%d: byte offset of d(%d,%d) holds %d, want %d", n, u, v, got, want)
				}
			}
		}
		got, err := store.Decode(bytes.NewReader(raw))
		if err != nil || !sameDistances(got.Distances, snap.Distances) {
			t.Fatalf("n=%d: decode of the encoded snapshot: %v", n, err)
		}
	}
}

// TestDecodeLayoutMatchesIndexOf checks the fallback path: a streaming pass
// over the encoded header reconstructs the same index the snapshot's own
// fields imply, provenance included.
func TestDecodeLayoutMatchesIndexOf(t *testing.T) {
	snap := buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(9, 14, 2), 7)
	raw := encodeToBytes(t, snap)

	want, err := store.IndexOf(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.DecodeLayout(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("DecodeLayout %+v, IndexOf %+v", got, want)
	}
	if got.Version != 7 || got.Algorithm != snap.Algorithm || got.Seed != snap.Seed {
		t.Fatalf("layout provenance %+v does not match the snapshot", got)
	}
}

// TestDirSaveWritesOnlySnapshots pins that a Save publishes exactly one
// file — the snapshot itself, the only row index a reader needs being its
// header — and that GC leaves nothing of a collected version behind.
func TestDirSaveWritesOnlySnapshots(t *testing.T) {
	root := t.TempDir()
	d, err := store.Open(root, store.KeepVersions(1))
	if err != nil {
		t.Fatal(err)
	}
	g := cliqueapsp.RandomGraph(8, 9, 5)
	for v := uint64(1); v <= 2; v++ {
		if err := d.Save("alpha", buildSnapshot(t, cliqueapsp.AlgExact, g, v)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tenantFiles(t, root, "alpha"); len(got) != 1 || got[0] != "0000000000000002.snap" {
		t.Fatalf("tenant directory holds %v, want only v2's snapshot", got)
	}
}

// TestDirOpenSweepsSidecars covers the upgrade path from releases that
// wrote a row-index sidecar next to each snapshot: Open removes every
// .idx file, whether or not its snapshot still exists, and keeps every
// snapshot.
func TestDirOpenSweepsSidecars(t *testing.T) {
	root := t.TempDir()
	d, err := store.Open(root, store.KeepVersions(2))
	if err != nil {
		t.Fatal(err)
	}
	g := cliqueapsp.RandomGraph(8, 9, 5)
	for v := uint64(1); v <= 2; v++ {
		if err := d.Save("alpha", buildSnapshot(t, cliqueapsp.AlgExact, g, v)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"0000000000000001.idx", "0000000000000002.idx", "00000000000000ff.idx"} {
		if err := os.WriteFile(filepath.Join(root, "alpha", name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.Open(root); err != nil {
		t.Fatal(err)
	}
	want := []string{"0000000000000001.snap", "0000000000000002.snap"}
	if got := tenantFiles(t, root, "alpha"); !slices.Equal(got, want) {
		t.Fatalf("after Open the tenant directory holds %v, want %v", got, want)
	}
	if s, err := d.Load("alpha"); err != nil || s.Version != 2 {
		t.Fatalf("Load after the sweep: %v", err)
	}
}

// tenantFiles lists the names in one tenant's directory, sorted.
func tenantFiles(t *testing.T, root, tenant string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(root, tenant))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}
