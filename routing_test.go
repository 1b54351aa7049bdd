package cliqueapsp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestNextHopTablesExactDistancesRouteOptimally(t *testing.T) {
	g := RandomGraph(48, 30, 11)
	table, err := NextHopTables(g, Exact(g))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := SimulateForwarding(g, table)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("%d failures with exact tables", stats.Failed)
	}
	if stats.WorstStretch > 1.0+1e-9 {
		t.Fatalf("worst stretch %.4f with exact tables, want 1.0", stats.WorstStretch)
	}
}

func TestNextHopTablesApproximateDistances(t *testing.T) {
	g := RandomGraph(64, 40, 13)
	res, err := New().Run(context.Background(), g, WithAlgorithm(AlgConstant), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	table, err := NextHopTables(g, res.Distances)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := SimulateForwarding(g, table)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Greedy forwarding on estimates can loop but delivered packets should
	// dominate, and realized stretch should be modest.
	if stats.Failed > stats.Delivered {
		t.Fatalf("failures (%d) exceed deliveries (%d)", stats.Failed, stats.Delivered)
	}
	if stats.WorstStretch > 4*res.FactorBound {
		t.Fatalf("worst stretch %.2f implausibly high", stats.WorstStretch)
	}
}

func TestNextHopTablesSmallHandExample(t *testing.T) {
	// 0 -1- 1 -1- 2 and a heavy direct 0-2 edge: next hop 0→2 must be 1.
	g := NewGraph(3)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 0, 2, 10)
	table, err := NextHopTables(g, Exact(g))
	if err != nil {
		t.Fatal(err)
	}
	if table[0][2] != 1 {
		t.Fatalf("next hop 0→2 = %d, want 1", table[0][2])
	}
	if table[0][0] != 0 {
		t.Fatalf("self next hop = %d, want 0", table[0][0])
	}
}

func TestNextHopTablesDisconnected(t *testing.T) {
	g := NewGraph(3)
	mustAdd(t, g, 0, 1, 1)
	table, err := NextHopTables(g, Exact(g))
	if err != nil {
		t.Fatal(err)
	}
	if table[0][2] != -1 {
		t.Fatalf("unreachable next hop = %d, want -1", table[0][2])
	}
	stats, err := SimulateForwarding(g, table)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("disconnected pairs must be skipped, got %d failures", stats.Failed)
	}
}

func TestNextHopRowMatchesTables(t *testing.T) {
	g := RandomGraph(40, 25, 17)
	dist := Exact(g)
	table, err := NextHopTables(g, dist)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		row, err := NextHopRow(g, dist, u)
		if err != nil {
			t.Fatal(err)
		}
		for v := range row {
			if row[v] != table[u][v] {
				t.Fatalf("row %d disagrees with table at %d: %d vs %d", u, v, row[v], table[u][v])
			}
		}
	}
}

func TestNextHopRowDisconnected(t *testing.T) {
	// Components {0,1,2} (path) and {3,4}; an isolated node 5.
	g := NewGraph(6)
	mustAdd(t, g, 0, 1, 2)
	mustAdd(t, g, 1, 2, 2)
	mustAdd(t, g, 3, 4, 1)
	dist := Exact(g)
	row, err := NextHopRow(g, dist, 0)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != 0 || row[1] != 1 || row[2] != 1 {
		t.Fatalf("in-component hops %v", row[:3])
	}
	for _, v := range []int{3, 4, 5} {
		if row[v] != -1 {
			t.Fatalf("unreachable destination %d got hop %d, want -1", v, row[v])
		}
	}
	iso, err := NextHopRow(g, dist, 5)
	if err != nil {
		t.Fatal(err)
	}
	for v, h := range iso {
		want := -1
		if v == 5 {
			want = 5
		}
		if h != want {
			t.Fatalf("isolated node hop to %d = %d, want %d", v, h, want)
		}
	}

	// Forwarding over the full tables must terminate without failures:
	// disconnected pairs are skipped, never looped on.
	table, err := NextHopTables(g, dist)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := SimulateForwarding(g, table)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("%d forwarding failures on a disconnected graph", stats.Failed)
	}
	if stats.Delivered == 0 {
		t.Fatal("in-component pairs not delivered")
	}
}

func TestNextHopRowValidation(t *testing.T) {
	g := RandomGraph(8, 5, 1)
	dist := Exact(g)
	if _, err := NextHopRow(g, nil, 0); err == nil {
		t.Fatal("nil distances accepted")
	}
	if _, err := NextHopRow(g, dist, -1); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := NextHopRow(g, dist, 8); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	small, err := DistancesFromSlices([][]int64{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NextHopRow(g, small, 0); err == nil {
		t.Fatal("wrong dimension accepted")
	}
}

func TestNextHopTablesValidation(t *testing.T) {
	g := RandomGraph(8, 5, 1)
	if _, err := NextHopTables(g, nil); err == nil {
		t.Fatal("nil distances accepted")
	}
	small, err := DistancesFromSlices([][]int64{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NextHopTables(g, small); err == nil {
		t.Fatal("wrong dimension accepted")
	}
	if _, err := SimulateForwarding(g, make([][]int, 2)); err == nil {
		t.Fatal("wrong table size accepted")
	}
}

// TestNextHopRowSaturatingCost pins the Inf-saturation fix: a neighbor whose
// estimate is finite but whose w + d lands at or above Inf must not be
// selected as a "reachable" next hop — the pair is as unreachable as one
// with an infinite estimate.
func TestNextHopRowSaturatingCost(t *testing.T) {
	// 0 -w- 1 -near Inf- 2 in estimate space: d(1,2) is finite but huge, so
	// routing 0→2 through 1 costs ≥ Inf.
	g := NewGraph(3)
	mustAdd(t, g, 0, 1, 10)
	mustAdd(t, g, 1, 2, 1)
	dist, err := DistancesFromSlices([][]int64{
		{0, 10, Inf - 5},
		{10, 0, Inf - 5},
		{Inf - 5, Inf - 5, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	row, err := NextHopRow(g, dist, 0)
	if err != nil {
		t.Fatal(err)
	}
	if row[2] != -1 {
		t.Fatalf("next hop 0→2 = %d over a cost ≥ Inf, want -1 (unreachable)", row[2])
	}
	if row[1] != 1 {
		t.Fatalf("finite-cost next hop 0→1 = %d, want 1", row[1])
	}

	// Same saturation check for the full tables, and forwarding over them
	// must skip the saturated pair instead of looping on a -1 hop.
	table, err := NextHopTables(g, dist)
	if err != nil {
		t.Fatal(err)
	}
	if table[0][2] != -1 {
		t.Fatalf("table hop 0→2 = %d, want -1", table[0][2])
	}
}

// TestNextHopRowNearInfStaysSelectable guards the other side of the
// saturation boundary: a candidate whose cost is large but strictly below
// Inf is still a valid next hop.
func TestNextHopRowNearInfStaysSelectable(t *testing.T) {
	g := NewGraph(3)
	mustAdd(t, g, 0, 1, 5)
	mustAdd(t, g, 1, 2, 1)
	dist, err := DistancesFromSlices([][]int64{
		{0, 5, Inf - 6},
		{5, 0, Inf - 20},
		{Inf - 6, Inf - 20, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	row, err := NextHopRow(g, dist, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cost through 1 is 5 + (Inf-20) = Inf-15 < Inf: reachable.
	if row[2] != 1 {
		t.Fatalf("next hop 0→2 = %d, want 1 (cost just below Inf)", row[2])
	}
}

// TestSimulateForwardingZeroWeightStretch pins the stretch-accounting fix:
// a zero-weight shortest path realized at positive cost must land in the
// InfiniteStretch bucket, not be reported as stretch 1.0.
func TestSimulateForwardingZeroWeightStretch(t *testing.T) {
	// d(0,2) = 0 via the two zero-weight edges, but the estimate makes node 0
	// prefer the direct weight-7 edge, so the realized cost is positive.
	g := NewGraph(3)
	mustAdd(t, g, 0, 1, 0)
	mustAdd(t, g, 1, 2, 0)
	mustAdd(t, g, 0, 2, 7)
	table, err := NextHopTables(g, Exact(g))
	if err != nil {
		t.Fatal(err)
	}
	// Force the misrouted hop: 0→2 goes over the heavy direct edge.
	table[0][2] = 2
	table[2][0] = 0
	stats, err := SimulateForwarding(g, table)
	if err != nil {
		t.Fatal(err)
	}
	// 0→2 and 2→0 cross the heavy edge directly; 1→2 tie-breaks through
	// node 0 (smaller index) and then crosses it as well.
	if stats.InfiniteStretch != 3 {
		t.Fatalf("InfiniteStretch = %d, want 3 (cost-7 routes over d=0)", stats.InfiniteStretch)
	}
	if stats.Failed != 0 {
		t.Fatalf("failures %d on a connected graph", stats.Failed)
	}
	// The remaining zero-weight pairs route at cost 0 and keep stretch 1.
	if stats.WorstStretch > 1.0+1e-9 {
		t.Fatalf("WorstStretch %.3f, want 1.0 over the finite-stretch pairs", stats.WorstStretch)
	}
	if stats.MeanStretch > 1.0+1e-9 || stats.MeanStretch == 0 {
		t.Fatalf("MeanStretch %.3f, want 1.0", stats.MeanStretch)
	}

	// With exact tables every delivered zero-weight pair routes at cost 0:
	// no infinite-stretch pairs. (Zero-weight ties can still make greedy
	// forwarding loop on some pairs — those count as Failed, not as
	// understated stretch.)
	clean, err := NextHopTables(g, Exact(g))
	if err != nil {
		t.Fatal(err)
	}
	stats, err = SimulateForwarding(g, clean)
	if err != nil {
		t.Fatal(err)
	}
	if stats.InfiniteStretch != 0 {
		t.Fatalf("exact tables reported %d infinite-stretch pairs", stats.InfiniteStretch)
	}
	if stats.Delivered+stats.Failed != 6 || stats.WorstStretch > 1.0+1e-9 {
		t.Fatalf("exact-table stats %+v", stats)
	}

	// Tables over the Theorem 2.1-style perturbed weights are the real fix:
	// no failures at all, and every pair realized at its true distance.
	loopFree, err := LoopFreeNextHopTables(g)
	if err != nil {
		t.Fatal(err)
	}
	stats, err = SimulateForwarding(g, loopFree)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 6 || stats.Failed != 0 || stats.InfiniteStretch != 0 {
		t.Fatalf("loop-free stats %+v, want 6 delivered, 0 failed, 0 infinite", stats)
	}
	if stats.WorstStretch > 1.0+1e-9 || stats.MeanStretch > 1.0+1e-9 {
		t.Fatalf("loop-free stretch %+v, want exactly 1.0", stats)
	}
}

// TestLoopFreeNextHopTablesZeroWeightTies pins the zero-weight routing loop
// and its fix. On 0—1 (weight 0), 1—2 (weight 1), exact tables send node 1
// toward destination 2 via node 0: the costs through 0 (0 + d(0,2) = 1) and
// through 2 (1 + 0 = 1) tie, the deterministic tie-break picks the smaller
// index, and the packet bounces 0↔1 forever. Perturbed-weight tables break
// exactly this tie and must deliver every pair at true cost.
func TestLoopFreeNextHopTablesZeroWeightTies(t *testing.T) {
	g := NewGraph(3)
	mustAdd(t, g, 0, 1, 0)
	mustAdd(t, g, 1, 2, 1)

	plain, err := NextHopTables(g, Exact(g))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := SimulateForwarding(g, plain)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed == 0 {
		t.Fatal("plain exact tables delivered every pair; the zero-weight loop this test pins is gone")
	}

	loopFree, err := LoopFreeNextHopTables(g)
	if err != nil {
		t.Fatal(err)
	}
	router := NewGreedyRouter(g, func(src int) []int { return loopFree[src] })
	exact := Exact(g)
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			if u == v {
				continue
			}
			_, cost, err := router.Route(u, v)
			if err != nil {
				t.Fatalf("route %d→%d: %v", u, v, err)
			}
			if want := exact.At(u, v); cost != want {
				t.Fatalf("route %d→%d cost %d, want exact %d", u, v, cost, want)
			}
		}
	}
	stats, err = SimulateForwarding(g, loopFree)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 6 || stats.Failed != 0 || stats.InfiniteStretch != 0 {
		t.Fatalf("loop-free stats %+v, want all 6 delivered", stats)
	}
}

// TestLoopFreeNextHopTablesRandomZeroClusters sweeps generated zero-weight
// workloads: loop-free tables must deliver every connected pair at exactly
// its true distance, with no failures and no infinite-stretch pairs.
func TestLoopFreeNextHopTablesRandomZeroClusters(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g, err := Generate("zeroclusters", 24, 0, 9, seed)
		if err != nil {
			t.Fatal(err)
		}
		table, err := LoopFreeNextHopTables(g)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := SimulateForwarding(g, table)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Failed != 0 || stats.InfiniteStretch != 0 {
			t.Fatalf("seed %d: %+v, want no failures and no infinite stretch", seed, stats)
		}
		if stats.WorstStretch > 1.0+1e-9 {
			t.Fatalf("seed %d: worst stretch %.6f, want 1.0 (true shortest paths)", seed, stats.WorstStretch)
		}
	}
}

func mustAdd(t *testing.T, g *Graph, u, v int, w int64) {
	t.Helper()
	if err := g.AddEdge(u, v, w); err != nil {
		t.Fatal(err)
	}
}

// routeTTLReference is the TTL-guarded walk Route's first-revisit guard replaced, kept verbatim
// as the differential reference: it follows a loop for 4n hops before it
// reports it.
func routeTTLReference(r *GreedyRouter, u, v int, rows func(src int) []int) ([]int, int64, error) {
	if u < 0 || u >= r.n || v < 0 || v >= r.n {
		return nil, 0, fmt.Errorf("cliqueapsp: route (%d,%d) out of range for n=%d", u, v, r.n)
	}
	path := []int{u}
	cur, cost := u, int64(0)
	for cur != v {
		if len(path) > 4*r.n {
			return nil, 0, fmt.Errorf("%w: loop routing %d to %d", ErrNoRoute, u, v)
		}
		nh := rows(cur)[v]
		if nh < 0 || nh == cur {
			return nil, 0, fmt.Errorf("%w: dead end at %d routing %d to %d", ErrNoRoute, cur, u, v)
		}
		w, exists := r.weights[cur][nh]
		if !exists {
			return nil, 0, fmt.Errorf("cliqueapsp: table routes %d->%d over a non-edge", cur, nh)
		}
		cost += w
		path = append(path, nh)
		cur = nh
	}
	return path, cost, nil
}

// TestRouteMatchesTTLReference routes every pair of random next-hop
// tables that mix true next hops with random neighbors (loops), dead ends
// and non-edge hops, and requires the path, cost and error of the
// first-revisit walk to match the TTL walk's exactly.
func TestRouteMatchesTTLReference(t *testing.T) {
	var delivered, loops, deadEnds, nonEdges int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		g := RandomGraph(n, 9, seed)
		exact, err := NextHopTables(g, Exact(g))
		if err != nil {
			t.Fatal(err)
		}
		table := make([][]int, n)
		for x := range table {
			table[x] = make([]int, n)
			for v := range table[x] {
				switch k := rng.Intn(10); {
				case k < 4:
					table[x][v] = exact[x][v]
				case k < 8 && len(g.inner.Out(x)) > 0:
					table[x][v] = g.inner.Out(x)[rng.Intn(len(g.inner.Out(x)))].To
				case k == 8:
					table[x][v] = rng.Intn(n + 2) // may be a non-edge or out of range
				default:
					table[x][v] = []int{-1, x}[rng.Intn(2)]
				}
			}
		}
		router := NewGreedyRouter(g, func(src int) []int { return table[src] })
		for u := -1; u <= n; u++ {
			for v := -1; v <= n; v++ {
				path, cost, err := router.Route(u, v)
				wantPath, wantCost, wantErr := routeTTLReference(router, u, v, router.rows)
				if !reflect.DeepEqual(path, wantPath) || cost != wantCost || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("seed %d n=%d route(%d,%d) = %v, %d, %v; reference %v, %d, %v",
						seed, n, u, v, path, cost, err, wantPath, wantCost, wantErr)
				}
				switch msg := fmt.Sprint(err); {
				case err == nil:
					delivered++
				case strings.Contains(msg, "loop"):
					loops++
				case strings.Contains(msg, "dead end"):
					deadEnds++
				case strings.Contains(msg, "non-edge"):
					nonEdges++
				}
			}
		}
	}
	// The tables must actually exercise every outcome.
	if delivered == 0 || loops == 0 || deadEnds == 0 || nonEdges == 0 {
		t.Fatalf("outcomes delivered=%d loops=%d dead-ends=%d non-edges=%d: want each > 0",
			delivered, loops, deadEnds, nonEdges)
	}
}

// TestRouteLoopCostsAtMostNRows routes over a table that cycles through
// every node but the destination: the loop must be reported after at most n
// row lookups, not after a 4n-hop walk.
func TestRouteLoopCostsAtMostNRows(t *testing.T) {
	const n = 64
	g := NewGraph(n)
	for x := 0; x < n-1; x++ {
		mustAdd(t, g, x, (x+1)%(n-1), 1) // a ring over 0..n-2
	}
	mustAdd(t, g, 0, n-1, 1)
	table := make([][]int, n)
	for x := range table {
		table[x] = make([]int, n)
		table[x][n-1] = (x + 1) % (n - 1) // around the ring, never to n-1
	}
	calls := 0
	router := NewGreedyRouter(g, func(src int) []int {
		calls++
		return table[src]
	})
	path, _, err := router.Route(0, n-1)
	if !errors.Is(err, ErrNoRoute) || !strings.Contains(err.Error(), "loop") || path != nil {
		t.Fatalf("Route = %v, %v; want a nil path and an ErrNoRoute loop", path, err)
	}
	if calls > n {
		t.Fatalf("rows called %d times on a loop, want at most n=%d", calls, n)
	}
}

// TestRouteParallelEdgeCostsLightest: of parallel edges, the next hop is
// elected over the lightest, so the route must be charged that edge's weight
// too, whichever order the edges were added in. Greedy forwarding over exact
// tables then realizes stretch 1.
func TestRouteParallelEdgeCostsLightest(t *testing.T) {
	g := NewGraph(3)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 0, 1, 5) // heavier, added last
	mustAdd(t, g, 1, 2, 2)
	exact := Exact(g)
	table, err := NextHopTables(g, exact)
	if err != nil {
		t.Fatal(err)
	}
	if _, cost, err := NewGreedyRouter(g, func(src int) []int { return table[src] }).Route(0, 2); err != nil || cost != 3 {
		t.Fatalf("Route(0,2) cost %d, %v; want 3 over the weight-1 edge", cost, err)
	}
	if _, cost, err := RouteToward(g, 0, 2, exact.Row(2)); err != nil || cost != 3 {
		t.Fatalf("RouteToward(0,2) cost %d, %v; want 3", cost, err)
	}
	st, err := SimulateForwarding(g, table)
	if err != nil || st.WorstStretch != 1 {
		t.Fatalf("SimulateForwarding = %+v, %v; want worst stretch 1", st, err)
	}
}

func TestRouteTowardValidation(t *testing.T) {
	g := RandomGraph(8, 5, 1)
	row := Exact(g).Row(3)
	for _, p := range [][2]int{{-1, 3}, {8, 3}, {0, -1}, {0, 8}} {
		if _, _, err := RouteToward(g, p[0], p[1], row); err == nil || errors.Is(err, ErrNoRoute) {
			t.Fatalf("RouteToward%v = %v, want an out-of-range error", p, err)
		}
	}
	if _, _, err := RouteToward(g, 0, 3, row[:7]); err == nil || errors.Is(err, ErrNoRoute) {
		t.Fatalf("RouteToward over a 7-entry row: %v, want a length error", err)
	}
	if path, cost, err := RouteToward(g, 3, 3, row); err != nil || len(path) != 1 || cost != 0 {
		t.Fatalf("RouteToward(3,3) = %v, %d, %v; want [3] at cost 0", path, cost, err)
	}
}
