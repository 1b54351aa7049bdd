package oracle_test

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
)

// liveHeap is the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestHotSnapshotHeldOnce pins the resident layout's footprint: a published
// hot tenant holds its symmetric estimate once, as n(n+1)/2 entries, and
// the build's full n×n matrix does not outlive the publish.
func TestHotSnapshotHeldOnce(t *testing.T) {
	const n = 512
	g := pathGraph(t, n, 1)
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()
	before := liveHeap()
	v, err := o.SetGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)
	grew := liveHeap() - before
	limit := int64(1.25 * 8 * n * (n + 1) / 2)
	t.Logf("publishing a hot n=%d tenant grew the live heap by %d bytes (limit %d)", n, grew, limit)
	if grew > limit {
		t.Fatalf("publishing a hot n=%d tenant grew the live heap by %d bytes, want at most %d", n, grew, limit)
	}
	runtime.KeepAlive(o)
}

// TestHotRestoreRefusesAsymmetricFile pins that every way into a hot
// snapshot packs, and so checks, the estimate: a snapshot file holding an
// asymmetric matrix is refused on a hot restore and on a promotion from
// cold serving, which serves the file as it is.
func TestHotRestoreRefusesAsymmetricFile(t *testing.T) {
	g := pathGraph(t, 5, 2)
	d, err := lopsided(g)
	if err != nil {
		t.Fatal(err)
	}
	save := func(t *testing.T) *store.Dir {
		dir := openStore(t)
		if err := dir.Save("lop", &store.Snapshot{
			Version: 1, Algorithm: "test-exact", FactorBound: 2,
			Engine: cliqueapsp.EngineVersion, Graph: g, Distances: d,
		}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	asymmetric := func(err error) bool { return err != nil && strings.Contains(err.Error(), "asymmetric") }

	t.Run("hot restore", func(t *testing.T) {
		m := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}, Store: save(t)})
		defer m.Close()
		var failure error
		restored, failed, err := m.RestoreAll(func(_ string, rerr error) { failure = rerr })
		if err != nil || restored != 0 || failed != 1 || !asymmetric(failure) {
			t.Fatalf("RestoreAll = (%d, %d, %v) reporting %v, want the asymmetric file refused", restored, failed, err, failure)
		}
		if _, err := m.Peek("lop"); !errors.Is(err, oracle.ErrTenantNotFound) {
			t.Fatalf("refused tenant hosted: %v", err)
		}
	})

	t.Run("promotion", func(t *testing.T) {
		// With a hot 4-node tenant in a budget of 8, the 5-node file
		// restores cold; promoting it would demote the idle tenant.
		m := coldManager(save(t), 8, 2)
		defer m.Close()
		pad := mustTenant(t, m, "pad", oracle.TenantConfig{})
		setAndWait(t, pad, pathGraph(t, 4, 1))
		if restored, failed, err := m.RestoreAll(nil); err != nil || restored != 1 || failed != 0 {
			t.Fatalf("RestoreAll = (%d, %d, %v)", restored, failed, err)
		}
		tn, err := m.Get("lop")
		if err != nil {
			t.Fatal(err)
		}
		if tier := tn.Stats().Tier; tier != "cold" {
			t.Fatalf("lop restored %s, want cold", tier)
		}
		if err := m.Promote("lop"); !asymmetric(err) {
			t.Fatalf("Promote of an asymmetric file: %v, want it refused", err)
		}
		st := m.Stats()
		if tn.Stats().Tier != "cold" || pad.Stats().Tier != "hot" || st.Promotions != 0 || st.Demotions != 0 {
			t.Fatalf("after the refused promotion: lop %s, pad %s, manager %+v; want both tiers kept",
				tn.Stats().Tier, pad.Stats().Tier, st)
		}
	})
}

// TestHotPathConcurrentRows has many goroutines route over different
// destination rows at once: each Path gathers its row into pooled scratch,
// and no answer may see another query's row.
func TestHotPathConcurrentRows(t *testing.T) {
	const n, workers, paths = 96, 8, 300
	g := cliqueapsp.RandomGraph(n, 50, 9)
	exact := cliqueapsp.Exact(g)
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()
	v, err := o.SetGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < paths; i++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				// On an exact estimate greedy routing never fails.
				want, cost, _ := cliqueapsp.RouteToward(g, src, dst, exact.Row(dst))
				if pr, err := o.Path(src, dst); err != nil || pr.Cost != cost || !slices.Equal(pr.Path, want) {
					t.Errorf("Path(%d,%d) = %+v, %v; want %v at cost %d", src, dst, pr, err, want, cost)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
