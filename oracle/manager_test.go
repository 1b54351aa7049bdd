package oracle_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
)

func init() {
	// test-double: exact distances scaled by 2 — an observably different
	// "algorithm" so multi-tenant tests can prove per-tenant choice sticks.
	mustRegister("test-double", cliqueapsp.AlgorithmSpec{
		Summary:     "doubled exact distances for manager tests",
		FactorBound: "2",
		RoundClass:  "0",
		Bandwidth:   "n/a",
		Run: func(ctx context.Context, g *cliqueapsp.Graph, p cliqueapsp.RunParams) (cliqueapsp.AlgorithmOutput, error) {
			exact := cliqueapsp.Exact(g)
			n := g.N()
			rows := make([][]int64, n)
			for u := 0; u < n; u++ {
				rows[u] = make([]int64, n)
				for v := 0; v < n; v++ {
					d := exact.At(u, v)
					if d < cliqueapsp.Inf {
						d *= 2
					}
					rows[u][v] = d
				}
			}
			doubled, err := cliqueapsp.DistancesFromSlices(rows)
			if err != nil {
				return cliqueapsp.AlgorithmOutput{}, err
			}
			return cliqueapsp.AlgorithmOutput{Distances: doubled, Factor: 2}, nil
		},
	})
}

func mustTenant(t *testing.T, m *oracle.Manager, name string, tc oracle.TenantConfig) *oracle.Tenant {
	t.Helper()
	tn, err := m.Create(name, tc)
	if err != nil {
		t.Fatalf("Create(%q): %v", name, err)
	}
	return tn
}

func setAndWait(t *testing.T, tn *oracle.Tenant, g *cliqueapsp.Graph) uint64 {
	t.Helper()
	v, err := tn.SetGraph(g)
	if err != nil {
		t.Fatalf("SetGraph(%s): %v", tn.Name(), err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tn.Wait(ctx, v); err != nil {
		t.Fatalf("Wait(%s, %d): %v", tn.Name(), v, err)
	}
	return v
}

func TestManagerLifecycle(t *testing.T) {
	m := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}})
	defer m.Close()

	a := mustTenant(t, m, "a", oracle.TenantConfig{})
	if _, err := m.Create("a", oracle.TenantConfig{}); !errors.Is(err, oracle.ErrTenantExists) {
		t.Fatalf("duplicate Create: %v", err)
	}
	if _, err := m.Create("", oracle.TenantConfig{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := m.Get("missing"); !errors.Is(err, oracle.ErrTenantNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
	mustTenant(t, m, "b", oracle.TenantConfig{})
	if names := m.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names() = %v", names)
	}

	setAndWait(t, a, pathGraph(t, 4, 3))
	got, err := m.Get("a")
	if err != nil || got.Name() != "a" {
		t.Fatalf("Get(a) = %v, %v", got, err)
	}
	dr, err := got.Dist(0, 3)
	if err != nil || dr.Distance != 9 {
		t.Fatalf("Dist via manager handle = %+v, %v", dr, err)
	}

	if err := m.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("b"); !errors.Is(err, oracle.ErrTenantNotFound) {
		t.Fatalf("double Delete: %v", err)
	}
	st := m.Stats()
	if st.Graphs != 1 || st.Created != 2 || st.Deleted != 1 {
		t.Fatalf("manager stats %+v", st)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Name != "a" || st.Tenants[0].Nodes != 4 {
		t.Fatalf("tenant stats %+v", st.Tenants)
	}
	if st.TotalNodes != 4 {
		t.Fatalf("TotalNodes = %d after delete, want 4", st.TotalNodes)
	}
}

// TestManagerPerTenantAlgorithms is the multi-tenancy payoff: two tenants on
// one manager serve the same graph under different algorithms and report
// different distances, concurrently.
func TestManagerPerTenantAlgorithms(t *testing.T) {
	m := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}})
	defer m.Close()

	exactT := mustTenant(t, m, "exact", oracle.TenantConfig{})
	doubleT := mustTenant(t, m, "double", oracle.TenantConfig{Algorithm: "test-double"})
	g := pathGraph(t, 8, 5)
	setAndWait(t, exactT, g)
	setAndWait(t, doubleT, g)

	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for _, tc := range []struct {
		tn   *oracle.Tenant
		want int64
	}{{exactT, 35}, {doubleT, 70}} {
		wg.Add(1)
		go func(tn *oracle.Tenant, want int64) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				dr, err := tn.Dist(0, 7)
				if err != nil {
					errc <- err
					return
				}
				if dr.Distance != want {
					errc <- errors.New(tn.Name() + ": wrong distance")
					return
				}
			}
		}(tc.tn, tc.want)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	st := m.Stats()
	if len(st.Tenants) != 2 {
		t.Fatalf("tenant count %d", len(st.Tenants))
	}
	for _, ts := range st.Tenants {
		wantAlg := "test-exact"
		if ts.Name == "double" {
			wantAlg = "test-double"
		}
		if ts.Oracle.Algorithm != wantAlg {
			t.Fatalf("tenant %s ran %q, want %q", ts.Name, ts.Oracle.Algorithm, wantAlg)
		}
	}
}

func TestManagerMaxGraphsLRUEviction(t *testing.T) {
	var evicted []string
	var evictMu sync.Mutex
	m := oracle.NewManager(oracle.ManagerConfig{
		MaxGraphs: 2,
		Base:      oracle.Config{Algorithm: "test-exact"},
		OnEvict: func(name string) {
			evictMu.Lock()
			evicted = append(evicted, name)
			evictMu.Unlock()
		},
	})
	defer m.Close()

	a := mustTenant(t, m, "a", oracle.TenantConfig{})
	b := mustTenant(t, m, "b", oracle.TenantConfig{})
	setAndWait(t, a, pathGraph(t, 4, 1))
	setAndWait(t, b, pathGraph(t, 4, 2))

	// Touch a so b is the LRU victim.
	if _, err := a.Dist(0, 1); err != nil {
		t.Fatal(err)
	}
	mustTenant(t, m, "c", oracle.TenantConfig{})

	if _, err := m.Get("b"); !errors.Is(err, oracle.ErrTenantNotFound) {
		t.Fatalf("evicted tenant still resolvable: %v", err)
	}
	if _, err := m.Get("a"); err != nil {
		t.Fatalf("recently used tenant evicted: %v", err)
	}
	st := m.Stats()
	if st.Evictions != 1 || st.Graphs != 2 {
		t.Fatalf("stats after eviction %+v", st)
	}
	evictMu.Lock()
	gotEvicted := append([]string(nil), evicted...)
	evictMu.Unlock()
	if len(gotEvicted) != 1 || gotEvicted[0] != "b" {
		t.Fatalf("OnEvict saw %v, want [b]", gotEvicted)
	}

	// The stale handle still answers from its last snapshot, but can no
	// longer register graphs.
	if !b.Evicted() {
		t.Fatal("victim handle not marked evicted")
	}
	dr, err := b.Dist(0, 3)
	if err != nil || dr.Distance != 6 {
		t.Fatalf("evicted handle Dist = %+v, %v", dr, err)
	}
	if _, err := b.SetGraph(pathGraph(t, 4, 1)); err == nil {
		t.Fatal("evicted handle accepted a graph")
	}
}

// TestManagerPeekDoesNotTouchLRU pins the monitoring contract: Peek (used
// by stats scrapes) must not refresh recency, so a polled-but-idle tenant
// is still the eviction victim.
func TestManagerPeekDoesNotTouchLRU(t *testing.T) {
	m := oracle.NewManager(oracle.ManagerConfig{
		MaxGraphs: 2,
		Base:      oracle.Config{Algorithm: "test-exact"},
	})
	defer m.Close()

	mustTenant(t, m, "a", oracle.TenantConfig{})
	mustTenant(t, m, "b", oracle.TenantConfig{})
	if _, err := m.Get("a"); err != nil { // a is now the most recently used
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // a monitoring scrape of b must not save it
		if _, err := m.Peek("b"); err != nil {
			t.Fatal(err)
		}
	}
	mustTenant(t, m, "c", oracle.TenantConfig{})
	if _, err := m.Peek("b"); !errors.Is(err, oracle.ErrTenantNotFound) {
		t.Fatalf("peeked-only tenant survived eviction: %v", err)
	}
	if _, err := m.Peek("a"); err != nil {
		t.Fatalf("touched tenant was evicted: %v", err)
	}
}

func TestManagerNodeBudgetAdmission(t *testing.T) {
	m := oracle.NewManager(oracle.ManagerConfig{
		MaxTotalNodes: 100,
		Base:          oracle.Config{Algorithm: "test-exact"},
	})
	defer m.Close()

	a := mustTenant(t, m, "a", oracle.TenantConfig{})
	b := mustTenant(t, m, "b", oracle.TenantConfig{})
	setAndWait(t, a, pathGraph(t, 60, 1))
	setAndWait(t, b, pathGraph(t, 30, 1))

	// A graph that can never fit is rejected outright.
	c := mustTenant(t, m, "c", oracle.TenantConfig{})
	if _, err := c.SetGraph(pathGraph(t, 101, 1)); !errors.Is(err, oracle.ErrOverCapacity) {
		t.Fatalf("oversized graph: %v", err)
	}

	// 60 + 30 + 50 > 100: admission must evict the LRU idle tenant (a) to
	// make room.
	if _, err := b.Dist(0, 1); err != nil { // touch b; a becomes LRU
		t.Fatal(err)
	}
	setAndWait(t, c, pathGraph(t, 50, 1))
	if _, err := m.Get("a"); !errors.Is(err, oracle.ErrTenantNotFound) {
		t.Fatalf("LRU tenant survived the node-budget eviction: %v", err)
	}
	st := m.Stats()
	if st.TotalNodes != 80 || st.Evictions != 1 {
		t.Fatalf("budget stats %+v", st)
	}

	// Growing a tenant's own graph re-admits the delta, not the full size.
	setAndWait(t, b, pathGraph(t, 40, 1))
	if st := m.Stats(); st.TotalNodes != 90 {
		t.Fatalf("TotalNodes after regrow = %d, want 90", st.TotalNodes)
	}
}

// TestManagerBuildingTenantIsNotIdle pins the "idle" part of LRU eviction:
// a tenant with a rebuild in flight is skipped even when it is the LRU.
func TestManagerBuildingTenantIsNotIdle(t *testing.T) {
	m := oracle.NewManager(oracle.ManagerConfig{
		MaxGraphs: 2,
		Base:      oracle.Config{Algorithm: "test-exact"},
	})
	defer m.Close()

	busy := mustTenant(t, m, "busy", oracle.TenantConfig{Algorithm: "test-slow"})
	idle := mustTenant(t, m, "idle", oracle.TenantConfig{})
	setAndWait(t, idle, pathGraph(t, 4, 1))
	// Start busy's (slow) build, then touch idle so busy is strictly the
	// LRU. Eviction must skip busy anyway — it has a rebuild in flight.
	vb, err := busy.SetGraph(pathGraph(t, 64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idle.Dist(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("new", oracle.TenantConfig{}); err != nil {
		t.Fatalf("Create during busy build: %v", err)
	}
	if _, err := m.Get("busy"); err != nil {
		t.Fatalf("building tenant was evicted: %v", err)
	}
	if _, err := m.Get("idle"); !errors.Is(err, oracle.ErrTenantNotFound) {
		t.Fatalf("idle tenant survived: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := busy.Wait(ctx, vb); err != nil {
		t.Fatal(err)
	}
}

// TestManagerEvictionWhileQuerying hammers a tenant with concurrent queries
// while it is evicted underneath (run under -race). Every query must either
// answer from the last snapshot or fail cleanly — never crash or race.
func TestManagerEvictionWhileQuerying(t *testing.T) {
	m := oracle.NewManager(oracle.ManagerConfig{
		MaxGraphs: 1,
		Base:      oracle.Config{Algorithm: "test-exact"},
	})
	defer m.Close()

	victim := mustTenant(t, m, "victim", oracle.TenantConfig{})
	setAndWait(t, victim, pathGraph(t, 16, 3))
	// The hammering below keeps refreshing victim's LRU recency, so recency
	// cannot make it the victim; with one slot it is the only candidate.

	stop := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				dr, err := victim.Dist(0, 15)
				if err != nil {
					errc <- err
					return
				}
				if dr.Distance != 45 {
					errc <- errors.New("wrong distance from victim snapshot")
					return
				}
				if _, err := victim.Path(0, 5); err != nil {
					errc <- err
					return
				}
			}
		}()
	}

	// Evict victim by creating a second tenant while the hammering
	// continues.
	if _, err := m.Create("second", oracle.TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let queries overlap the closed oracle
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if !victim.Evicted() {
		t.Fatal("victim not evicted")
	}
	if m.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", m.Stats().Evictions)
	}
}

func TestManagerCloseDrainsAll(t *testing.T) {
	m := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-slow"}})
	a := mustTenant(t, m, "a", oracle.TenantConfig{})
	b := mustTenant(t, m, "b", oracle.TenantConfig{})
	setAndWait(t, a, pathGraph(t, 8, 2))
	// Leave b with an in-flight build; Close must drain it.
	if _, err := b.SetGraph(pathGraph(t, 32, 1)); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close() // idempotent

	if _, err := m.Create("c", oracle.TenantConfig{}); !errors.Is(err, oracle.ErrClosed) {
		t.Fatalf("Create after Close: %v", err)
	}
	if _, err := a.SetGraph(pathGraph(t, 4, 1)); err == nil {
		t.Fatal("SetGraph accepted after Close")
	}
	// Snapshots on outstanding handles keep serving.
	if dr, err := a.Dist(0, 7); err != nil || dr.Distance != 14 {
		t.Fatalf("Dist after Close = %+v, %v", dr, err)
	}
}
