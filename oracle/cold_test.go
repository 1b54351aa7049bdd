package oracle_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
	"github.com/congestedclique/cliqueapsp/tier"
)

// coldManager builds a tier-enabled manager over dir: the same store backs
// persistence and cold serving, exactly as cmd/ccserve wires it.
func coldManager(dir *store.Dir, maxNodes, cacheRows int) *oracle.Manager {
	return oracle.NewManager(oracle.ManagerConfig{
		Base:          oracle.Config{Algorithm: "test-exact"},
		Store:         dir,
		Cold:          tier.NewStore(dir),
		ColdCacheRows: cacheRows,
		MaxTotalNodes: maxNodes,
	})
}

// TestManagerDemotesUnderNodePressure is the tentpole's admission property:
// when the node budget fills, the idle tenant is demoted to cold serving —
// still hosted, still answering with identical results at its old version —
// instead of being evicted, and promotion swaps the tiers back.
func TestManagerDemotesUnderNodePressure(t *testing.T) {
	dir := openStore(t)
	m := coldManager(dir, 40, 4)
	defer m.Close()

	ga := pathGraph(t, 32, 3)
	alpha := mustTenant(t, m, "alpha", oracle.TenantConfig{})
	setAndWait(t, alpha, ga)

	// beta's 32 nodes do not fit next to alpha's 32 in a budget of 40 —
	// but demoting alpha to its 4-row cold charge makes room.
	beta := mustTenant(t, m, "beta", oracle.TenantConfig{})
	setAndWait(t, beta, pathGraph(t, 32, 1))

	st := m.Stats()
	if st.Demotions != 1 || st.Evictions != 0 {
		t.Fatalf("admission stats %+v, want 1 demotion and no eviction", st)
	}
	if st.ColdTenants != 1 || st.TotalNodes != 36 {
		t.Fatalf("occupancy %+v, want 1 cold tenant at 4+32=36 nodes", st)
	}
	ts := alpha.Stats()
	if ts.Tier != "cold" || ts.Oracle.Tier != "cold" {
		t.Fatalf("alpha tier %q/%q, want cold", ts.Tier, ts.Oracle.Tier)
	}
	if beta.Stats().Tier != "hot" {
		t.Fatalf("beta tier %q, want hot", beta.Stats().Tier)
	}

	// The demoted tenant answers Dist, Batch and Path from disk — same
	// values, same version, no engine run.
	dr, err := alpha.Dist(0, 31)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Distance != 93 || dr.Version != 1 {
		t.Fatalf("cold Dist = %+v, want 93 @ v1", dr)
	}
	br, err := alpha.Batch([]oracle.Pair{{U: 0, V: 5}, {U: 31, V: 31}, {U: 2, V: 9}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{15, 0, 21} {
		if br.Answers[i].Distance != want {
			t.Fatalf("cold Batch[%d] = %+v, want %d", i, br.Answers[i], want)
		}
	}
	pr, err := alpha.Path(0, 6)
	if err != nil || !pr.Reachable || pr.Cost != 18 || len(pr.Path) != 7 {
		t.Fatalf("cold Path = %+v, %v — want cost 18 over 7 hops", pr, err)
	}
	ts = alpha.Stats()
	// Rebuilds stays at 1 — the initial SetGraph build — because cold
	// queries never run the engine.
	if ts.Oracle.Rebuilds != 1 || ts.Oracle.ColdServes < 3 {
		t.Fatalf("cold serving counters %+v", ts.Oracle)
	}
	if rc := ts.Oracle.RowCache; rc == nil || rc.Resident > 4 || rc.Misses == 0 {
		t.Fatalf("row cache %+v, want ≤ 4 resident rows with misses", rc)
	}
	if st = m.Stats(); st.ColdServes < 3 || st.RowCacheMisses == 0 {
		t.Fatalf("aggregated cold counters %+v", st)
	}

	// Promote swaps the tiers: alpha earns its matrix back, the now-idler
	// beta demotes to make room. One full decode, no engine run.
	if err := m.Promote("alpha"); err != nil {
		t.Fatal(err)
	}
	if ts = alpha.Stats(); ts.Tier != "hot" || ts.Oracle.Restores != 0 || ts.Oracle.Rebuilds != 1 {
		t.Fatalf("promoted alpha %+v", ts)
	}
	if beta.Stats().Tier != "cold" {
		t.Fatalf("beta tier %q after alpha's promotion, want cold", beta.Stats().Tier)
	}
	st = m.Stats()
	if st.Promotions != 1 || st.Demotions != 2 || st.FullDecodes != 1 {
		t.Fatalf("tier-swap stats %+v, want 1 promotion, 2 demotions, 1 decode", st)
	}
	if dr, err = alpha.Dist(0, 31); err != nil || dr.Distance != 93 || dr.Version != 1 {
		t.Fatalf("promoted Dist = %+v, %v — want the same 93 @ v1", dr, err)
	}
	// Promoting a hot tenant is a no-op.
	if err := m.Promote("alpha"); err != nil {
		t.Fatal(err)
	}
	if st = m.Stats(); st.Promotions != 1 {
		t.Fatalf("no-op promotion counted: %+v", st)
	}
}

// TestManagerDemotionRejectsMisplacedSnapshot: when the file under the
// serving version's name holds an older version's bytes, the planned
// demotion cannot open it cold and falls back to a full eviction instead
// of serving the older rows under the newer version.
func TestManagerDemotionRejectsMisplacedSnapshot(t *testing.T) {
	dir := openStore(t)
	m := coldManager(dir, 40, 4)
	defer m.Close()

	alpha := mustTenant(t, m, "alpha", oracle.TenantConfig{})
	ga := pathGraph(t, 32, 3)
	setAndWait(t, alpha, ga)
	if v := setAndWait(t, alpha, ga); v != 2 {
		t.Fatalf("second build published v%d, want v2", v)
	}
	copySnapshot(t, dir, "alpha", 1, 2)

	// beta's admission plans alpha's demotion, which must now fail.
	setAndWait(t, mustTenant(t, m, "beta", oracle.TenantConfig{}), pathGraph(t, 32, 1))
	if st := m.Stats(); st.Demotions != 0 || st.Evictions != 1 || st.ColdTenants != 0 {
		t.Fatalf("demotions %d, evictions %d, cold tenants %d — want the demotion to fall back to one eviction",
			st.Demotions, st.Evictions, st.ColdTenants)
	}
	if !alpha.Evicted() {
		t.Fatal("alpha still hosted after its demotion failed")
	}
}

// TestManagerColdFleetOverBudget is the acceptance e2e: a fleet whose
// summed node counts are 10× the restart budget comes back entirely cold —
// zero engine rebuilds, zero full-matrix decodes — and serves Dist, Batch
// and Path answers identical to the hot fleet that persisted them, with
// resident rows bounded by the cache configuration.
func TestManagerColdFleetOverBudget(t *testing.T) {
	dir := openStore(t)
	const fleet, n = 10, 48 // 480 summed nodes, restarted under a budget of 40

	graphs := make(map[string]*cliqueapsp.Graph, fleet)
	names := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9"}
	m1 := oracle.NewManager(oracle.ManagerConfig{
		Base:  oracle.Config{Algorithm: "test-exact"},
		Store: dir,
	})
	for i, name := range names {
		g := cliqueapsp.RandomGraph(n, 50, int64(i+1))
		graphs[name] = g
		setAndWait(t, mustTenant(t, m1, name, oracle.TenantConfig{}), g)
	}
	m1.Close()

	// The budget sits below a single tenant's n, so not even the first
	// tenant restored can claim hot headroom: the whole fleet comes up cold.
	m2 := coldManager(dir, 40, 4)
	defer m2.Close()
	restored, failed, err := m2.RestoreAll(nil)
	if err != nil || restored != fleet || failed != 0 {
		t.Fatalf("RestoreAll = (%d, %d, %v), want (%d, 0, nil)", restored, failed, err, fleet)
	}
	st := m2.Stats()
	if st.FullDecodes != 0 {
		t.Fatalf("tight-budget restore decoded %d full matrices, want 0", st.FullDecodes)
	}
	if st.ColdTenants != fleet || st.TotalNodes != fleet*4 || st.TotalNodes > 40 {
		t.Fatalf("occupancy %+v, want %d cold tenants at %d nodes", st, fleet, fleet*4)
	}

	for _, name := range names {
		tn, err := m2.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		exact := cliqueapsp.Exact(graphs[name])
		if dr, err := tn.Dist(0, n-1); err != nil || dr.Distance != exact.At(0, n-1) || dr.Version != 1 {
			t.Fatalf("%s: cold Dist = %+v, %v — want %d @ v1", name, dr, err, exact.At(0, n-1))
		}
		pairs := []oracle.Pair{{U: 1, V: 7}, {U: 12, V: 40}, {U: 5, V: 5}, {U: 30, V: 2}}
		br, err := tn.Batch(pairs)
		if err != nil {
			t.Fatalf("%s: cold Batch: %v", name, err)
		}
		for i, p := range pairs {
			if br.Answers[i].Distance != exact.At(p.U, p.V) {
				t.Fatalf("%s: cold Batch[%d] = %+v, want %d", name, i, br.Answers[i], exact.At(p.U, p.V))
			}
		}
		// Greedy forwarding over exact distances with positive weights
		// realizes the exact cost for every reachable pair.
		if d := exact.At(3, n-2); d < cliqueapsp.Inf {
			if pr, err := tn.Path(3, n-2); err != nil || !pr.Reachable || pr.Cost != d {
				t.Fatalf("%s: cold Path = %+v, %v — want cost %d", name, pr, err, d)
			}
		}
		ts := tn.Stats()
		if ts.Tier != "cold" || ts.Oracle.Rebuilds != 0 || ts.Oracle.Restores != 1 {
			t.Fatalf("%s: tier/engine state %+v", name, ts)
		}
		if rc := ts.Oracle.RowCache; rc == nil || rc.Resident > 4 || rc.Capacity != 4 {
			t.Fatalf("%s: row cache %+v, want capacity 4 and ≤ 4 resident", name, rc)
		}
	}
	st = m2.Stats()
	if st.FullDecodes != 0 || st.ColdServes < uint64(fleet*3) {
		t.Fatalf("fleet-wide cold counters %+v", st)
	}
}

// TestManagerColdQuotaThrottles pins that the quota gate sits in front of
// the cold path too: a demoted tenant's queries are throttled exactly like
// a hot one's, and throttled calls are not counted as cold serves.
func TestManagerColdQuotaThrottles(t *testing.T) {
	dir := openStore(t)
	g := pathGraph(t, 16, 2)
	m1 := oracle.NewManager(oracle.ManagerConfig{
		Base:  oracle.Config{Algorithm: "test-exact"},
		Store: dir,
	})
	setAndWait(t, mustTenant(t, m1, "alpha", oracle.TenantConfig{}), g)
	m1.Close()

	m := coldManager(dir, 8, 2) // 16 nodes do not fit hot in a budget of 8
	defer m.Close()
	if restored, failed, err := m.RestoreAll(nil); err != nil || restored != 1 || failed != 0 {
		t.Fatalf("RestoreAll = (%d, %d, %v)", restored, failed, err)
	}
	if err := m.SetQuota("alpha", oracle.Quota{AnswersPerSec: 0.001, AnswerBurst: 2}); err != nil {
		t.Fatal(err)
	}
	tn, err := m.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if tn.Stats().Tier != "cold" {
		t.Fatalf("tenant tier %q under a budget of 8, want cold", tn.Stats().Tier)
	}

	if dr, err := tn.Dist(0, 15); err != nil || dr.Distance != 30 {
		t.Fatalf("first cold Dist = %+v, %v", dr, err)
	}
	served := tn.Stats().Oracle.ColdServes
	// Burst of 2, one spent: a 2-answer batch no longer fits.
	var qerr *oracle.QuotaError
	if _, err := tn.Batch([]oracle.Pair{{U: 0, V: 1}, {U: 1, V: 2}}); !errors.As(err, &qerr) {
		t.Fatalf("over-quota cold Batch: %v, want a QuotaError", err)
	}
	if qerr.RetryAfter <= 0 {
		t.Fatalf("QuotaError without retry delay: %+v", qerr)
	}
	ts := tn.Stats()
	if ts.Throttled != 1 || ts.Oracle.ColdServes != served {
		t.Fatalf("throttle accounting %+v, want 1 throttled and no new cold serve", ts)
	}
}

// TestManagerColdConcurrency races cold Batch/Dist/Path traffic against a
// Promote and a final Delete — the tier swaps take effect mid-flight and
// every successful answer must still be correct (run under -race).
func TestManagerColdConcurrency(t *testing.T) {
	dir := openStore(t)
	m := coldManager(dir, 24, 4)
	defer m.Close()

	const n = 24
	g := pathGraph(t, n, 3)
	exact := cliqueapsp.Exact(g)
	// Restore order is alphabetical: "aaa" (n=20) grabs the hot headroom,
	// so "zzz" — the tenant under test — reliably comes up cold.
	m1 := oracle.NewManager(oracle.ManagerConfig{
		Base:  oracle.Config{Algorithm: "test-exact"},
		Store: dir,
	})
	setAndWait(t, mustTenant(t, m1, "aaa", oracle.TenantConfig{}), pathGraph(t, 20, 1))
	setAndWait(t, mustTenant(t, m1, "zzz", oracle.TenantConfig{}), g)
	m1.Close()

	if restored, failed, err := m.RestoreAll(nil); err != nil || restored != 2 || failed != 0 {
		t.Fatalf("RestoreAll = (%d, %d, %v)", restored, failed, err)
	}
	tn, err := m.Get("zzz")
	if err != nil {
		t.Fatal(err)
	}
	if tn.Stats().Tier != "cold" {
		t.Fatal("zzz not cold under the tight budget")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u, v := (w+i)%n, (w*5+i*3)%n
				var err error
				switch i % 3 {
				case 0:
					var dr oracle.DistResult
					if dr, err = tn.Dist(u, v); err == nil && dr.Distance != exact.At(u, v) {
						fail <- errors.New("cold Dist diverged mid-swap")
						return
					}
				case 1:
					var br oracle.BatchResult
					if br, err = tn.Batch([]oracle.Pair{{U: u, V: v}}); err == nil &&
						br.Answers[0].Distance != exact.At(u, v) {
						fail <- errors.New("cold Batch diverged mid-swap")
						return
					}
				default:
					var pr oracle.PathResult
					if pr, err = tn.Path(u, v); err == nil && pr.Cost != exact.At(u, v) {
						fail <- errors.New("cold Path diverged mid-swap")
						return
					}
				}
				// Queries may legitimately fail once Delete lands; any other
				// error is a bug.
				if err != nil && !errors.Is(err, oracle.ErrClosed) && !errors.Is(err, oracle.ErrTenantNotFound) {
					fail <- err
					return
				}
			}
		}(w)
	}

	time.Sleep(10 * time.Millisecond)
	// Promote zzz mid-traffic (evicting the idle aaa to make room), then
	// delete it while queries are still flying.
	if err := m.Promote("zzz"); err != nil && !errors.Is(err, oracle.ErrSuperseded) {
		t.Fatalf("Promote under load: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := m.Delete("zzz"); err != nil {
		t.Fatalf("Delete under load: %v", err)
	}
	close(stop)
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	if _, err := m.Get("zzz"); !errors.Is(err, oracle.ErrTenantNotFound) {
		t.Fatalf("deleted tenant still resolvable: %v", err)
	}
}

// TestColdReadFault corrupts one distance row of a cold tenant's snapshot
// file underneath it. Every query touching that row — a Dist or Batch pair
// from it, or any Path toward it (Path reads the destination's row) — must
// fail with ErrColdRead, never with ErrNoRoute or a wrong answer; once the
// bytes are restored the same queries succeed, so the failed read was not
// cached.
func TestColdReadFault(t *testing.T) {
	dir := openStore(t)
	g := pathGraph(t, 8, 3) // 0-1-…-7, every edge weight 3
	m1 := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}, Store: dir})
	setAndWait(t, mustTenant(t, m1, "alpha", oracle.TenantConfig{}), g)
	m1.Close()

	// A budget below n brings alpha up cold without reading any row.
	m := coldManager(dir, 4, 2)
	defer m.Close()
	tn, err := m.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if tn.Stats().Tier != "cold" {
		t.Fatalf("alpha tier %q, want cold", tn.Stats().Tier)
	}

	snap, err := dir.Load("alpha")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := store.IndexOf(snap)
	if err != nil {
		t.Fatal(err)
	}
	path, err := dir.SnapshotPath("alpha", snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const bad = 5 // Path(·, 5) reads it for the answer and every hop
	off := ix.RowOffset + bad*ix.RowWidth
	orig := make([]byte, ix.RowWidth)
	if _, err := f.ReadAt(orig, off); err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, ix.RowWidth)
	for i := range garbage {
		garbage[i] = 0xff // every entry reads as -1: an impossible distance
	}
	if _, err := f.WriteAt(garbage, off); err != nil {
		t.Fatal(err)
	}

	wantColdRead := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, oracle.ErrColdRead) || !errors.Is(err, store.ErrCorrupt) || errors.Is(err, cliqueapsp.ErrNoRoute) {
			t.Fatalf("%s over a corrupt row: %v, want ErrColdRead wrapping ErrCorrupt", what, err)
		}
	}
	dr, err := tn.Dist(bad, 1)
	wantColdRead("Dist", err)
	if dr.Reachable {
		t.Fatalf("failed Dist still answered %+v", dr)
	}
	_, err = tn.Batch([]oracle.Pair{{U: 0, V: 5}, {U: bad, V: 1}})
	wantColdRead("Batch", err)
	for u := 0; u < g.N(); u++ {
		pr, err := tn.Path(u, bad)
		wantColdRead(fmt.Sprintf("Path(%d, %d) toward the corrupt row", u, bad), err)
		if pr.Reachable || pr.Path != nil {
			t.Fatalf("failed Path(%d, %d) still answered %+v", u, bad, pr)
		}
	}
	// Rows 0 and 1 read fine, and a Path toward them never reads row 5.
	if pr, err := tn.Path(bad, 0); err != nil || pr.Cost != 15 {
		t.Fatalf("Path(%d, 0) from the corrupt row = %+v, %v — want cost 15", bad, pr, err)
	}

	if _, err := f.WriteAt(orig, off); err != nil {
		t.Fatal(err)
	}
	pr, err := tn.Path(0, bad)
	if err != nil || !pr.Reachable || pr.Cost != 15 || len(pr.Path) != 6 {
		t.Fatalf("Path after repair = %+v, %v — want cost 15 over 5 hops", pr, err)
	}
	if dr, err := tn.Dist(bad, 1); err != nil || dr.Distance != 12 {
		t.Fatalf("Dist after repair = %+v, %v — want 12", dr, err)
	}
	br, err := tn.Batch([]oracle.Pair{{U: 0, V: 5}, {U: bad, V: 1}})
	if err != nil || br.Answers[0].Distance != 15 || br.Answers[1].Distance != 12 {
		t.Fatalf("Batch after repair = %+v, %v", br, err)
	}
}

// TestColdPathHeapBounded: Path on a cold tenant keeps no routing state, so
// its heap stays the row cache's whatever the traffic. 2,048 random paths
// over n=512 through an 8-row cache may grow the live heap by at most
// 4·ColdCacheRows·n·8 bytes (the cache holds at most its rows, as many
// evicted rows and as many pread buffers); a next-hop row memoized per
// source would hold up to n·n·8 bytes, 2 MiB here.
func TestColdPathHeapBounded(t *testing.T) {
	const n, cacheRows, paths = 512, 8, 2048
	dir := openStore(t)
	m1 := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}, Store: dir})
	setAndWait(t, mustTenant(t, m1, "alpha", oracle.TenantConfig{}), cliqueapsp.RandomGraph(n, 50, 4))
	m1.Close()

	m := coldManager(dir, cacheRows, cacheRows)
	defer m.Close()
	tn, err := m.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if tier := tn.Stats().Tier; tier != "cold" {
		t.Fatalf("alpha tier %q, want cold", tier)
	}
	rng := rand.New(rand.NewSource(1))
	route := func() {
		t.Helper()
		if pr, err := tn.Path(rng.Intn(n), rng.Intn(n)); err != nil || !pr.Reachable {
			t.Fatalf("cold Path = %+v, %v", pr, err)
		}
	}
	// Warm up: the graph decodes and the cache fills its free lists.
	for i := 0; i < 4*cacheRows; i++ {
		route()
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	for i := 0; i < paths; i++ {
		route()
	}
	grew := live() - before
	t.Logf("%d cold paths grew the live heap by %d bytes", paths, grew)
	if limit := int64(4 * cacheRows * n * 8); grew > limit {
		t.Fatalf("%d cold paths grew the live heap by %d bytes, want at most %d", paths, grew, limit)
	}
	runtime.KeepAlive(tn)
}
