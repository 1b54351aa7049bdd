package store_test

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/store"
)

func openDir(t *testing.T, opts ...store.Option) *store.Dir {
	t.Helper()
	d, err := store.Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDirSaveLoadRoundTrip(t *testing.T) {
	d := openDir(t)
	snap := buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(10, 9, 4), 3)
	if err := d.Save("alpha", snap); err != nil {
		t.Fatal(err)
	}
	got, err := d.Load("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 3 || !sameDistances(got.Distances, snap.Distances) {
		t.Fatalf("loaded snapshot v%d does not match the saved one", got.Version)
	}
	tenants, err := d.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 1 || tenants[0] != "alpha" {
		t.Fatalf("tenants %v, want [alpha]", tenants)
	}
}

func TestDirLoadPicksNewestVersion(t *testing.T) {
	d := openDir(t, store.KeepVersions(10))
	g := cliqueapsp.RandomGraph(8, 9, 5)
	for v := uint64(1); v <= 3; v++ {
		snap := buildSnapshot(t, cliqueapsp.AlgExact, g, v)
		if err := d.Save("alpha", snap); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.Load("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 3 {
		t.Fatalf("loaded v%d, want the newest v3", got.Version)
	}
	versions, err := d.Versions("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 3 || versions[0] != 1 || versions[2] != 3 {
		t.Fatalf("versions %v, want [1 2 3]", versions)
	}
}

func TestDirGCKeepsNewestK(t *testing.T) {
	d := openDir(t, store.KeepVersions(2))
	g := cliqueapsp.RandomGraph(8, 9, 5)
	for v := uint64(1); v <= 5; v++ {
		if err := d.Save("alpha", buildSnapshot(t, cliqueapsp.AlgExact, g, v)); err != nil {
			t.Fatal(err)
		}
	}
	versions, err := d.Versions("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 || versions[0] != 4 || versions[1] != 5 {
		t.Fatalf("versions after GC %v, want [4 5]", versions)
	}
}

func TestDirOpenSweepsTempFiles(t *testing.T) {
	root := t.TempDir()
	d, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save("alpha", buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(8, 9, 5), 1)); err != nil {
		t.Fatal(err)
	}
	// A crash mid-save leaves a temp file behind; the next Open must sweep
	// it without touching the published snapshot.
	stray := filepath.Join(root, "alpha", "save-123.tmp")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(root); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("temp file survived Open: %v", err)
	}
	if _, err := d.Load("alpha"); err != nil {
		t.Fatalf("published snapshot lost in the sweep: %v", err)
	}
}

func TestDirDelete(t *testing.T) {
	d := openDir(t)
	if err := d.Save("alpha", buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(8, 9, 5), 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load("alpha"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("load after delete: %v, want ErrNotFound", err)
	}
	if err := d.Delete("alpha"); err != nil {
		t.Fatalf("deleting an absent tenant: %v, want nil", err)
	}
}

func TestDirLoadNotFound(t *testing.T) {
	d := openDir(t)
	if _, err := d.Load("ghost"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("err %v, want ErrNotFound", err)
	}
}

func TestDirRejectsUnsafeTenantNames(t *testing.T) {
	d := openDir(t)
	snap := buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(8, 9, 5), 1)
	for _, name := range []string{"", "..", "a/b", ".hidden", "-dash", "x y"} {
		if err := d.Save(name, snap); err == nil {
			t.Fatalf("tenant name %q accepted", name)
		}
		if _, err := d.Load(name); err == nil || errors.Is(err, store.ErrNotFound) {
			t.Fatalf("load of %q: %v, want a name validation error", name, err)
		}
	}
}

func TestDirLoadSurfacesCorruption(t *testing.T) {
	root := t.TempDir()
	d, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save("alpha", buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(8, 9, 5), 1)); err != nil {
		t.Fatal(err)
	}
	versions, err := d.Versions("alpha")
	if err != nil || len(versions) != 1 {
		t.Fatalf("versions %v, %v", versions, err)
	}
	path := filepath.Join(root, "alpha", "0000000000000001.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load("alpha"); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("load of truncated file: %v, want ErrCorrupt", err)
	}
}

// TestDirLoadVersionRejectsMisplacedFile: the filename is the caller's
// claim and the header is the file's own. v1's bytes copied under v2's name
// must fail with ErrCorrupt, not restore the tenant at v1 as if v2 had
// loaded.
func TestDirLoadVersionRejectsMisplacedFile(t *testing.T) {
	root := t.TempDir()
	d, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	g := cliqueapsp.RandomGraph(8, 9, 5)
	for v := uint64(1); v <= 2; v++ {
		if err := d.Save("alpha", buildSnapshot(t, cliqueapsp.AlgExact, g, v)); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(root, "alpha", "0000000000000001.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "alpha", "0000000000000002.snap"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadVersion("alpha", 2); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("LoadVersion of v1's bytes under v2's name: %v, want ErrCorrupt", err)
	}
	if _, err := d.Load("alpha"); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Load of v1's bytes as the newest version: %v, want ErrCorrupt", err)
	}
	if s, err := d.LoadVersion("alpha", 1); err != nil || s.Version != 1 {
		t.Fatalf("LoadVersion(1) of the genuine file: %v", err)
	}
}

// TestDirLoadVersionChecksSizeBeforeDecoding: a header-only file claiming
// n=4096 promises a 128 MiB matrix. LoadVersion must reject it with
// ErrCorrupt from the header and the file's length alone, allocating next
// to nothing, rather than let Decode allocate the matrix and then hit EOF.
func TestDirLoadVersionChecksSizeBeforeDecoding(t *testing.T) {
	root := t.TempDir()
	d, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	snap := buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.NewGraph(1), 1)
	ix, err := store.IndexOf(snap)
	if err != nil {
		t.Fatal(err)
	}
	// With no edges the header ends where the rows begin, on n then m.
	header := encodeToBytes(t, snap)[:ix.RowOffset]
	binary.LittleEndian.PutUint32(header[len(header)-8:], 4096)
	if err := os.MkdirAll(filepath.Join(root, "alpha"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "alpha", "0000000000000001.snap"), header, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = d.LoadVersion("alpha", 1)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("LoadVersion of a %d-byte file claiming n=4096: %v, want ErrCorrupt", len(header), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting a %d-byte file allocated %d bytes", len(header), grew)
	}
}
