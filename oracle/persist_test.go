package oracle_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
	"github.com/congestedclique/cliqueapsp/tier"
)

func openStore(t *testing.T) *store.Dir {
	t.Helper()
	d, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// restoreResult fakes what a decoded snapshot hands RestoreSnapshot.
func restoreResult(g *cliqueapsp.Graph) *cliqueapsp.Result {
	return &cliqueapsp.Result{
		Distances:   cliqueapsp.Exact(g),
		FactorBound: 1,
		Algorithm:   "test-exact",
		Seed:        7,
	}
}

func TestOracleRestoreSnapshot(t *testing.T) {
	g := pathGraph(t, 8, 3)
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()

	if err := o.RestoreSnapshot(5, g, restoreResult(g)); err != nil {
		t.Fatal(err)
	}
	if !o.Ready() || o.Version() != 5 {
		t.Fatalf("restored oracle: ready=%v version=%d, want serving v5", o.Ready(), o.Version())
	}
	// A restore satisfies waiters without an engine run.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := o.Wait(ctx, 5); err != nil {
		t.Fatalf("Wait on restored version: %v", err)
	}
	dr, err := o.Dist(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Distance != 21 || dr.Version != 5 {
		t.Fatalf("Dist = %+v, want 21 @ v5", dr)
	}
	pr, err := o.Path(0, 7)
	if err != nil || !pr.Reachable || pr.Cost != 21 {
		t.Fatalf("Path over a restored snapshot = %+v, %v", pr, err)
	}
	st := o.Stats()
	if st.Restores != 1 || st.Rebuilds != 0 {
		t.Fatalf("stats %+v, want 1 restore and 0 rebuilds", st)
	}

	// A second restore must not shadow the serving snapshot: restores are
	// only allowed into a pristine oracle.
	if err := o.RestoreSnapshot(4, g, restoreResult(g)); !errors.Is(err, oracle.ErrSuperseded) {
		t.Fatalf("stale restore: %v, want ErrSuperseded", err)
	}

	// SetGraph after a restore supersedes it: versions keep increasing.
	v, err := o.SetGraph(pathGraph(t, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if v <= 5 {
		t.Fatalf("post-restore SetGraph assigned v%d, want > 5", v)
	}
	waitReady(t, o, v)
	if dr, err := o.Dist(0, 7); err != nil || dr.Distance != 7 {
		t.Fatalf("after rebuild: %+v, %v", dr, err)
	}
}

func TestOracleRestoreSnapshotValidates(t *testing.T) {
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()
	g := pathGraph(t, 4, 1)
	if err := o.RestoreSnapshot(0, g, restoreResult(g)); err == nil {
		t.Fatal("version 0 accepted")
	}
	if err := o.RestoreSnapshot(1, g, nil); err == nil {
		t.Fatal("nil result accepted")
	}
	if err := o.RestoreSnapshot(1, pathGraph(t, 5, 1), restoreResult(g)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	o.Close()
	if err := o.RestoreSnapshot(1, g, restoreResult(g)); !errors.Is(err, oracle.ErrClosed) {
		t.Fatalf("restore after Close: %v, want ErrClosed", err)
	}

	// A restore must never shadow live intent: once SetGraph was accepted,
	// even a pristine-looking (not yet serving) oracle refuses to restore.
	o2 := oracle.New(oracle.Config{Algorithm: "test-slow"})
	defer o2.Close()
	if _, err := o2.SetGraph(g); err != nil {
		t.Fatal(err)
	}
	if err := o2.RestoreSnapshot(9, g, restoreResult(g)); !errors.Is(err, oracle.ErrSuperseded) {
		t.Fatalf("restore over an accepted SetGraph: %v, want ErrSuperseded", err)
	}
}

// TestManagerRecreateReplacesPersistedIncarnation pins the incarnation
// rule: a re-Create of a name with persisted
// snapshots replaces the old incarnation entirely — its files are removed
// at Create, so stale data can never resurrect under the fresh config,
// and the new incarnation's publishes are the only files on disk.
func TestManagerRecreateReplacesPersistedIncarnation(t *testing.T) {
	dir := openStore(t)
	m := oracle.NewManager(oracle.ManagerConfig{
		MaxGraphs: 1,
		Base:      oracle.Config{Algorithm: "test-exact"},
		Store:     dir,
	})
	defer m.Close()

	// First incarnation publishes v1 and v2 (both persisted; keep=2).
	tn := mustTenant(t, m, "alpha", oracle.TenantConfig{})
	setAndWait(t, tn, pathGraph(t, 5, 9))
	setAndWait(t, tn, pathGraph(t, 5, 9))
	mustTenant(t, m, "filler", oracle.TenantConfig{}) // evicts alpha; files remain

	// Second incarnation: explicit re-create (evicting filler). The old
	// files must be gone immediately — an eviction of the still-empty
	// tenant must NOT resurrect the old incarnation's data.
	tn2 := mustTenant(t, m, "alpha", oracle.TenantConfig{Algorithm: "test-double"})
	if vs, err := dir.Versions("alpha"); err != nil || len(vs) != 0 {
		t.Fatalf("old incarnation files survived re-create: %v, %v", vs, err)
	}
	v := setAndWait(t, tn2, pathGraph(t, 5, 1))
	snap, err := dir.Load("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != v || snap.Algorithm != "test-double" {
		t.Fatalf("persisted %q v%d, want the new incarnation's %q v%d", snap.Algorithm, snap.Version, "test-double", v)
	}
	if d := snap.Distances.At(0, 4); d != 8 { // test-double doubles the exact 4
		t.Fatalf("persisted d(0,4) = %d, want the new graph's doubled 8", d)
	}
}

func TestManagerDeleteEvictedPersistedTenant(t *testing.T) {
	dir := openStore(t)
	m := oracle.NewManager(oracle.ManagerConfig{
		MaxGraphs: 1,
		Base:      oracle.Config{Algorithm: "test-exact"},
		Store:     dir,
	})
	defer m.Close()

	setAndWait(t, mustTenant(t, m, "alpha", oracle.TenantConfig{}), pathGraph(t, 5, 2))
	mustTenant(t, m, "filler", oracle.TenantConfig{}) // evicts alpha; disk copy remains

	// alpha is not hosted, but it is addressable (Get would rehydrate it) —
	// so Delete must work on it and erase the disk state for good.
	if err := m.Delete("alpha"); err != nil {
		t.Fatalf("Delete of evicted persisted tenant: %v", err)
	}
	if _, err := dir.Load("alpha"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("snapshots survived Delete: %v", err)
	}
	if _, err := m.Get("alpha"); !errors.Is(err, oracle.ErrTenantNotFound) {
		t.Fatalf("deleted tenant resurrected: %v", err)
	}
}

func TestManagerPersistsOnPublish(t *testing.T) {
	dir := openStore(t)
	m := oracle.NewManager(oracle.ManagerConfig{
		Base:  oracle.Config{Algorithm: "test-exact", Eps: 0.25},
		Store: dir,
	})
	defer m.Close()

	// A tenant without its own Eps override must record the base eps the
	// build actually inherits, not 0 — and its engine-derived seed must not
	// be marked as pinned, or a restore would freeze its randomness.
	setAndWait(t, mustTenant(t, m, "plain", oracle.TenantConfig{}), pathGraph(t, 4, 1))
	if snap, err := dir.Load("plain"); err != nil || snap.Eps != 0.25 || snap.SeedPinned {
		t.Fatalf("inherited provenance: %+v, %v (want eps 0.25, seed not pinned)", snap, err)
	}

	tn := mustTenant(t, m, "alpha", oracle.TenantConfig{Eps: 0.5, Seed: 11})
	setAndWait(t, tn, pathGraph(t, 6, 2))

	snap, err := dir.Load("alpha")
	if err != nil {
		t.Fatalf("published snapshot not on disk: %v", err)
	}
	if snap.Version != 1 || snap.Algorithm != "test-exact" || snap.Eps != 0.5 || snap.Engine != cliqueapsp.EngineVersion {
		t.Fatalf("persisted provenance %+v", snap)
	}
	if !snap.SeedPinned || snap.Seed != 11 {
		t.Fatalf("pinned-seed provenance %+v, want seed 11 pinned", snap)
	}
	if d := snap.Distances.At(0, 5); d != 10 {
		t.Fatalf("persisted d(0,5) = %d, want 10", d)
	}
	st := m.Stats()
	if st.Persists != 2 || st.PersistErrors != 0 {
		t.Fatalf("persist counters %+v, want 2 persists", st)
	}

	// Delete must take the persisted snapshots with it: deleted ≠ evicted.
	if err := m.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Load("alpha"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("snapshots survived Delete: %v", err)
	}
	if _, err := m.Get("alpha"); !errors.Is(err, oracle.ErrTenantNotFound) {
		t.Fatalf("deleted tenant resurrected: %v", err)
	}
}

// TestManagerPersistsRepairProvenance: a repaired publish lands on disk like
// a built one, carrying the base version and delta count it descends from,
// and the fleet-level OnRepair hook observes it.
func TestManagerPersistsRepairProvenance(t *testing.T) {
	dir := openStore(t)
	repairs := make(chan uint64, 4)
	m := oracle.NewManager(oracle.ManagerConfig{
		Base:     oracle.Config{Algorithm: "test-exact", RepairMaxDirtyFrac: 1},
		Store:    dir,
		OnRepair: func(tenant string, v uint64, d time.Duration, err error) { repairs <- v },
	})
	defer m.Close()

	tn := mustTenant(t, m, "alpha", oracle.TenantConfig{})
	v1 := setAndWait(t, tn, pathGraph(t, 6, 2))
	if snap, err := dir.Load("alpha"); err != nil || snap.BaseVersion != 0 || snap.DeltaCount != 0 {
		t.Fatalf("built snapshot provenance: %+v, %v (want zero repair provenance)", snap, err)
	}

	v2, err := tn.ApplyDelta(cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
		{Op: cliqueapsp.DeltaReweight, U: 0, V: 1, W: 9},
		{Op: cliqueapsp.DeltaAdd, U: 0, V: 5, W: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tn.Wait(ctx, v2); err != nil {
		t.Fatal(err)
	}
	snap, err := dir.Load("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != v2 || snap.BaseVersion != v1 || snap.DeltaCount != 2 {
		t.Fatalf("repaired snapshot provenance v%d base=%d deltas=%d, want v%d base=%d deltas=2",
			snap.Version, snap.BaseVersion, snap.DeltaCount, v2, v1)
	}
	if d := snap.Distances.At(0, 5); d != 1 {
		t.Fatalf("persisted repaired d(0,5) = %d, want 1", d)
	}
	select {
	case v := <-repairs:
		if v != v2 {
			t.Fatalf("OnRepair saw v%d, want v%d", v, v2)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fleet OnRepair hook never fired")
	}
	if st := tn.Stats(); st.Oracle.Repairs != 1 {
		t.Fatalf("tenant repairs = %d, want 1", st.Oracle.Repairs)
	}
}

func TestManagerRehydratesEvictedTenant(t *testing.T) {
	dir := openStore(t)
	evicted := make(chan string, 8)
	m := oracle.NewManager(oracle.ManagerConfig{
		MaxGraphs: 2,
		Base:      oracle.Config{Algorithm: "test-exact"},
		Store:     dir,
		OnEvict:   func(name string) { evicted <- name },
	})
	defer m.Close()

	ga := pathGraph(t, 8, 3)
	setAndWait(t, mustTenant(t, m, "alpha", oracle.TenantConfig{}), ga)
	setAndWait(t, mustTenant(t, m, "beta", oracle.TenantConfig{}), pathGraph(t, 4, 1))

	// Touch beta so alpha is the LRU victim, then force the eviction.
	if _, err := m.Get("beta"); err != nil {
		t.Fatal(err)
	}
	mustTenant(t, m, "gamma", oracle.TenantConfig{})
	select {
	case name := <-evicted:
		if name != "alpha" {
			t.Fatalf("evicted %q, want alpha", name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no eviction")
	}

	// Next access rehydrates from disk: same answers, zero engine runs.
	tn, err := m.Get("alpha")
	if err != nil {
		t.Fatalf("rehydrating Get: %v", err)
	}
	dr, err := tn.Dist(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := cliqueapsp.Exact(ga).At(0, 7); dr.Distance != want {
		t.Fatalf("rehydrated Dist(0,7) = %d, want %d", dr.Distance, want)
	}
	if dr.Version != 1 {
		t.Fatalf("rehydrated version %d, want the persisted v1", dr.Version)
	}
	ts := tn.Stats()
	if ts.Oracle.Rebuilds != 0 || ts.Oracle.Restores != 1 {
		t.Fatalf("rehydrated tenant ran the engine: %+v", ts.Oracle)
	}
	st := m.Stats()
	if st.ColdHits != 1 || st.RehydrateErrors != 0 {
		t.Fatalf("cold-hit counters %+v", st)
	}
	// gamma (never built, nothing persisted) stays gone even with a store.
	if err := m.Delete("gamma"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("gamma"); !errors.Is(err, oracle.ErrTenantNotFound) {
		t.Fatalf("Get of never-persisted tenant: %v", err)
	}
}

// TestManagerRehydrateConcurrentGets races Gets on an unhosted tenant: one
// rehydrates it, and every caller must get a tenant that already serves —
// a rehydrating tenant becomes visible only once it is published. Pinned on
// both tiers: hot (same-process eviction, budget to spare) and cold (a
// restarted manager whose node budget is below n).
func TestManagerRehydrateConcurrentGets(t *testing.T) {
	for _, tc := range []struct {
		name    string
		restart bool // alpha was persisted by an earlier manager over dir
		cfg     func(dir *store.Dir) oracle.ManagerConfig
		tier    string
	}{
		{"hot", false, func(dir *store.Dir) oracle.ManagerConfig {
			return oracle.ManagerConfig{MaxGraphs: 1, Base: oracle.Config{Algorithm: "test-exact"}, Store: dir}
		}, "hot"},
		{"cold", true, func(dir *store.Dir) oracle.ManagerConfig {
			return oracle.ManagerConfig{
				MaxGraphs:     1,
				MaxTotalNodes: 4, // below alpha's 6 nodes: no hot headroom
				ColdCacheRows: 2,
				Base:          oracle.Config{Algorithm: "test-exact"},
				Store:         dir,
				Cold:          tier.NewStore(dir),
			}
		}, "cold"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := openStore(t)
			g := pathGraph(t, 6, 2)
			if tc.restart {
				m0 := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}, Store: dir})
				setAndWait(t, mustTenant(t, m0, "alpha", oracle.TenantConfig{}), g)
				m0.Close()
			}
			m := oracle.NewManager(tc.cfg(dir))
			defer m.Close()
			if !tc.restart {
				setAndWait(t, mustTenant(t, m, "alpha", oracle.TenantConfig{}), g)
			}
			mustTenant(t, m, "filler", oracle.TenantConfig{}) // evicts alpha, or holds the slot it must take

			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tn, err := m.Get("alpha")
					if err != nil {
						errs <- err
						return
					}
					if dr, err := tn.Dist(0, 5); err != nil || dr.Distance != 10 {
						errs <- err
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatalf("concurrent rehydrating Get: %v", err)
				}
			}
			if st := m.Stats(); st.ColdHits < 1 {
				t.Fatalf("cold hits %d, want ≥ 1", st.ColdHits)
			}
			tn, err := m.Peek("alpha")
			if err != nil {
				t.Fatal(err)
			}
			if got := tn.Stats().Tier; got != tc.tier {
				t.Fatalf("rehydrated tier %q, want %q", got, tc.tier)
			}
		})
	}
}

// TestManagerRestoreAllAfterRestart is the full process-restart property:
// a second Manager over the same store directory serves the whole fleet
// with correct answers and zero engine runs. Tenants the second Manager
// already hosts keep their own state, whether or not they serve yet.
func TestManagerRestoreAllAfterRestart(t *testing.T) {
	dir := openStore(t)
	ga, gb, gc := pathGraph(t, 8, 3), pathGraph(t, 5, 4), pathGraph(t, 6, 1)

	m1 := oracle.NewManager(oracle.ManagerConfig{
		Base:  oracle.Config{Algorithm: "test-exact"},
		Store: dir,
	})
	m2 := oracle.NewManager(oracle.ManagerConfig{
		Base:  oracle.Config{Algorithm: "test-exact"},
		Store: dir,
	})
	defer m2.Close()
	// m2 hosts gamma serving its own build, and delta not serving yet. Both
	// are created before m1 persists delta, so Create's wipe cannot erase
	// the files RestoreAll will find under both names.
	gamma := mustTenant(t, m2, "gamma", oracle.TenantConfig{})
	vGamma := setAndWait(t, gamma, gc)
	delta := mustTenant(t, m2, "delta", oracle.TenantConfig{})

	setAndWait(t, mustTenant(t, m1, "alpha", oracle.TenantConfig{}), ga)
	setAndWait(t, mustTenant(t, m1, "beta", oracle.TenantConfig{Algorithm: "test-double"}), gb)
	setAndWait(t, mustTenant(t, m1, "delta", oracle.TenantConfig{}), ga)
	m1.Close()
	if names, err := dir.Tenants(); err != nil || len(names) != 4 {
		t.Fatalf("persisted tenants %v, %v: want alpha, beta, delta and gamma", names, err)
	}

	restored, failed, err := m2.RestoreAll(nil)
	if err != nil || restored != 2 || failed != 0 {
		t.Fatalf("RestoreAll = (%d, %d, %v), want (2, 0, nil)", restored, failed, err)
	}
	if ts := gamma.Stats().Oracle; ts.Version != vGamma || ts.Restores != 0 || ts.Rebuilds != 1 {
		t.Fatalf("hosted serving tenant touched by RestoreAll: %+v", ts)
	}
	if dr, err := gamma.Dist(0, 5); err != nil || dr.Distance != 5 {
		t.Fatalf("gamma Dist(0,5) = %+v, %v, want its own build's 5", dr, err)
	}
	if ts := delta.Stats().Oracle; delta.Ready() || ts.Restores != 0 {
		t.Fatalf("hosted not-ready tenant restored into: ready=%v %+v", delta.Ready(), ts)
	}
	if tn, err := m2.Peek("delta"); err != nil || tn != delta {
		t.Fatalf("Peek(delta) = %p, %v, want the hosted tenant %p", tn, err, delta)
	}

	for name, want := range map[string]int64{
		"alpha": cliqueapsp.Exact(ga).At(0, 7),
		"beta":  2 * cliqueapsp.Exact(gb).At(0, 4), // test-double persisted doubled distances
	} {
		tn, err := m2.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		last := tn.Stats().Oracle.GraphN - 1
		dr, err := tn.Dist(0, last)
		if err != nil {
			t.Fatal(err)
		}
		if dr.Distance != want {
			t.Fatalf("%s: restored Dist(0,%d) = %d, want %d", name, last, dr.Distance, want)
		}
		if ts := tn.Stats(); ts.Oracle.Rebuilds != 0 || ts.Oracle.Restores != 1 {
			t.Fatalf("%s rebuilt after restart: %+v", name, ts.Oracle)
		}
	}
	st := m2.Stats()
	// 13 restored nodes (alpha 8, beta 5) plus gamma's own 6; delta has none.
	if st.Restored != 2 || st.RestoreErrors != 0 || st.TotalNodes != 13+6 {
		t.Fatalf("restart stats %+v", st)
	}

	// A new upload on a restored tenant supersedes the restored version.
	tn, err := m2.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	v := setAndWait(t, tn, pathGraph(t, 8, 1))
	if v <= 1 {
		t.Fatalf("post-restore upload got v%d, want > restored v1", v)
	}
	if dr, _ := tn.Dist(0, 7); dr.Distance != 7 {
		t.Fatalf("post-restore rebuild serves %d, want 7", dr.Distance)
	}
}

// TestManagerRestoreAllSkipsCorrupt pins the corruption-resilience
// requirement: a tenant whose newest snapshot is damaged is skipped and
// reported, and the rest of the fleet still comes up.
func TestManagerRestoreAllSkipsCorrupt(t *testing.T) {
	root := t.TempDir()
	dir, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	m1 := oracle.NewManager(oracle.ManagerConfig{
		Base:  oracle.Config{Algorithm: "test-exact"},
		Store: dir,
	})
	setAndWait(t, mustTenant(t, m1, "good", oracle.TenantConfig{}), pathGraph(t, 6, 2))
	setAndWait(t, mustTenant(t, m1, "bad", oracle.TenantConfig{}), pathGraph(t, 6, 2))
	m1.Close()

	// Flip one byte deep in bad's snapshot: only the checksum can tell.
	path := filepath.Join(root, "bad", "0000000000000001.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-20] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := oracle.NewManager(oracle.ManagerConfig{
		Base:  oracle.Config{Algorithm: "test-exact"},
		Store: dir,
	})
	defer m2.Close()
	var reported []string
	restored, failed, err := m2.RestoreAll(func(tenant string, rerr error) {
		if rerr != nil {
			if !errors.Is(rerr, store.ErrCorrupt) {
				t.Errorf("tenant %q failed with %v, want ErrCorrupt", tenant, rerr)
			}
			reported = append(reported, tenant)
		}
	})
	if err != nil || restored != 1 || failed != 1 {
		t.Fatalf("RestoreAll = (%d, %d, %v), want (1, 1, nil)", restored, failed, err)
	}
	if len(reported) != 1 || reported[0] != "bad" {
		t.Fatalf("reported failures %v, want [bad]", reported)
	}
	if st := m2.Stats(); st.Restored != 1 || st.RestoreErrors != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The corrupt tenant is not hosted (and not half-created)…
	if _, err := m2.Peek("bad"); !errors.Is(err, oracle.ErrTenantNotFound) {
		t.Fatalf("corrupt tenant hosted: %v", err)
	}
	// …and the healthy one serves.
	tn, err := m2.Get("good")
	if err != nil {
		t.Fatal(err)
	}
	if dr, err := tn.Dist(0, 5); err != nil || dr.Distance != 10 {
		t.Fatalf("good tenant: %+v, %v", dr, err)
	}
}

// copySnapshot overwrites tenant's persisted version to with the bytes of
// version from — a misplaced file whose name claims one version while its
// header records another.
func copySnapshot(t *testing.T, dir *store.Dir, tenant string, from, to uint64) {
	t.Helper()
	src, err := dir.SnapshotPath(tenant, from)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dir.SnapshotPath(tenant, to)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestManagerRestoreAllRejectsMisplacedSnapshot: v1's bytes copied over v2
// must not bring the tenant back — at v1 from the hot decode, or as v2 over
// v1's rows from a cold open. Either way RestoreAll counts a restore error.
func TestManagerRestoreAllRejectsMisplacedSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name string
		cold bool
	}{{"hot", false}, {"cold", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := openStore(t)
			m1 := oracle.NewManager(oracle.ManagerConfig{
				Base:  oracle.Config{Algorithm: "test-exact"},
				Store: dir,
			})
			tn := mustTenant(t, m1, "alpha", oracle.TenantConfig{})
			g := pathGraph(t, 6, 2)
			setAndWait(t, tn, g)
			if v := setAndWait(t, tn, g); v != 2 {
				t.Fatalf("second build published v%d, want v2", v)
			}
			m1.Close()
			copySnapshot(t, dir, "alpha", 1, 2)

			// Hot: a store-only manager decodes the newest file. Cold: a
			// 4-node budget cannot hold the 6-node tenant, so it opens cold.
			cfg := oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}, Store: dir}
			if tc.cold {
				cfg.Cold, cfg.MaxTotalNodes, cfg.ColdCacheRows = tier.NewStore(dir), 4, 2
			}
			m2 := oracle.NewManager(cfg)
			defer m2.Close()
			restored, failed, err := m2.RestoreAll(func(tenant string, rerr error) {
				if !errors.Is(rerr, store.ErrCorrupt) {
					t.Errorf("tenant %q restored with %v, want ErrCorrupt", tenant, rerr)
				}
			})
			if err != nil || restored != 0 || failed != 1 {
				t.Fatalf("RestoreAll = (%d, %d, %v), want (0, 1, nil)", restored, failed, err)
			}
			if st := m2.Stats(); st.Restored != 0 || st.RestoreErrors != 1 {
				t.Fatalf("stats %+v, want 0 restored and 1 restore error", st)
			}
			if _, err := m2.Peek("alpha"); !errors.Is(err, oracle.ErrTenantNotFound) {
				t.Fatalf("misplaced snapshot hosted: %v", err)
			}
		})
	}
}

func TestManagerPersistErrorSurfaced(t *testing.T) {
	dir := openStore(t)
	var mu sync.Mutex
	var events []string
	m := oracle.NewManager(oracle.ManagerConfig{
		Base:  oracle.Config{Algorithm: "test-exact"},
		Store: failingStore{dir},
		OnPersist: func(name string, version uint64, err error) {
			mu.Lock()
			if err != nil {
				events = append(events, name)
			}
			mu.Unlock()
		},
	})
	defer m.Close()
	setAndWait(t, mustTenant(t, m, "alpha", oracle.TenantConfig{}), pathGraph(t, 4, 1))
	if st := m.Stats(); st.PersistErrors != 1 || st.Persists != 0 {
		t.Fatalf("counters %+v, want one persist error", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 || events[0] != "alpha" {
		t.Fatalf("OnPersist events %v", events)
	}
}

// failingStore wraps a Dir but refuses every save.
type failingStore struct{ *store.Dir }

func (failingStore) Save(tenant string, s *store.Snapshot) error {
	return errors.New("disk on fire")
}

// undeletableStore wraps a Dir but refuses to erase persisted snapshots.
type undeletableStore struct{ *store.Dir }

func (s undeletableStore) Delete(tenant string) error {
	if vs, err := s.Versions(tenant); err == nil && len(vs) == 0 {
		return nil // nothing to erase
	}
	return errors.New("disk on fire")
}

// TestManagerTenantMaxNodes checks TenantConfig.MaxNodes: SetGraph refuses a
// larger graph, and the cap comes back with every same-process rehydration
// (after eviction, and after a Delete whose erase failed) but not with a
// re-created name.
func TestManagerTenantMaxNodes(t *testing.T) {
	for _, failErase := range []bool{false, true} {
		t.Run(fmt.Sprintf("failErase=%v", failErase), func(t *testing.T) {
			var st oracle.SnapshotStore = openStore(t)
			if failErase {
				st = undeletableStore{st.(*store.Dir)}
			}
			m := oracle.NewManager(oracle.ManagerConfig{
				MaxGraphs: 1,
				Base:      oracle.Config{Algorithm: "test-exact"},
				Store:     st,
			})
			defer m.Close()
			capped := func(tn *oracle.Tenant) {
				t.Helper()
				if tn.MaxNodes() != 3 {
					t.Fatalf("MaxNodes() = %d, want 3", tn.MaxNodes())
				}
				if _, err := tn.SetGraph(pathGraph(t, 4, 1)); err == nil {
					t.Fatal("SetGraph accepted 4 nodes over a cap of 3")
				}
			}
			tn := mustTenant(t, m, "small", oracle.TenantConfig{MaxNodes: 3})
			capped(tn)
			setAndWait(t, tn, pathGraph(t, 3, 1))
			if !failErase {
				mustTenant(t, m, "other", oracle.TenantConfig{}) // evicts small
			} else if err := m.Delete("small"); err == nil {
				t.Fatal("Delete reported an erase the store refused")
			}
			tn, err := m.Get("small")
			if err != nil {
				t.Fatalf("rehydrating Get: %v", err)
			}
			capped(tn)
			if st := m.Stats(); st.ColdHits != 1 {
				t.Fatalf("cold hits %d, want 1", st.ColdHits)
			}
			if failErase {
				return
			}
			if err := m.Delete("small"); err != nil {
				t.Fatal(err)
			}
			if tn = mustTenant(t, m, "small", oracle.TenantConfig{}); tn.MaxNodes() != 0 {
				t.Fatalf("re-created tenant kept MaxNodes %d", tn.MaxNodes())
			}
			setAndWait(t, tn, pathGraph(t, 4, 1))
		})
	}
}

func TestTenantNameValidationSharedWithStore(t *testing.T) {
	// The manager accepts any non-empty name, but a store-backed manager
	// must not persist under names the store rejects — make sure those
	// fail loudly at persist time, not silently.
	dir := openStore(t)
	m := oracle.NewManager(oracle.ManagerConfig{
		Base:  oracle.Config{Algorithm: "test-exact"},
		Store: dir,
	})
	defer m.Close()
	tn := mustTenant(t, m, "weird/../name", oracle.TenantConfig{})
	setAndWait(t, tn, pathGraph(t, 4, 1))
	if st := m.Stats(); st.PersistErrors != 1 {
		t.Fatalf("unsafe tenant name persisted: %+v", st)
	}
	if tenants, err := dir.Tenants(); err != nil || len(tenants) != 0 {
		t.Fatalf("store contents %v, %v — want empty", tenants, err)
	}
}
