package cliqueapsp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestSimulateForwardingExactRoutesOptimally(t *testing.T) {
	g := RandomGraph(48, 30, 11)
	stats, err := SimulateForwarding(g, Exact(g))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("%d failures over exact distances", stats.Failed)
	}
	if stats.WorstStretch > 1.0+1e-9 {
		t.Fatalf("worst stretch %.4f over exact distances, want 1.0", stats.WorstStretch)
	}
}

func TestSimulateForwardingApproximateDistances(t *testing.T) {
	g := RandomGraph(64, 40, 13)
	res, err := New().Run(context.Background(), g, WithAlgorithm(AlgConstant), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := SimulateForwarding(g, res.Distances)
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

// TestSimulateForwardingMatchesTableReference pins SimulateForwarding to
// the walk it replaced: next-hop tables over the estimate's rows, then the
// table router (route_reference_test.go). Every generator at n=24 and 96,
// weights 0–9 (so zero-weight ties), seeds 1–3, under constant, logapprox,
// smalldiameter and the exact distances, plus an asymmetric estimate: every
// ForwardingStats field must be equal, MeanStretch bit for bit.
func TestSimulateForwardingMatchesTableReference(t *testing.T) {
	check := func(name string, g *Graph, d *DistanceMatrix) {
		t.Helper()
		got, err := SimulateForwarding(g, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := simulateForwardingReference(g, nextHopTablesReference(g, d))
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if got != want || math.Float64bits(got.MeanStretch) != math.Float64bits(want.MeanStretch) {
			t.Fatalf("%s: SimulateForwarding = %+v, table reference %+v", name, got, want)
		}
	}
	eng := New()
	cases := 0
	for _, gen := range Generators() {
		for _, n := range []int{24, 96} {
			for seed := int64(1); seed <= 3; seed++ {
				g, err := Generate(gen, n, 0, 9, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, alg := range []Algorithm{AlgConstant, AlgLogApprox, AlgSmallDiameter} {
					res, err := eng.Run(context.Background(), g, WithAlgorithm(alg), WithSeed(seed))
					if err != nil {
						t.Fatalf("%s/%s/n=%d/seed=%d: %v", gen, alg, n, seed, err)
					}
					check(fmt.Sprintf("%s/%s/n=%d/seed=%d", gen, alg, n, seed), g, res.Distances)
					cases++
				}
				check(fmt.Sprintf("%s/exact/n=%d/seed=%d", gen, n, seed), g, Exact(g))
				cases++
			}
		}
	}

	// An asymmetric estimate: each entry of the exact matrix inflated by its
	// own random factor, a few lifted to Inf. Routing reads δ(·,v), the
	// column, so a walk over row v instead would disagree here.
	g := RandomGraph(40, 9, 3)
	rng := rand.New(rand.NewSource(3))
	rows := Exact(g).ToSlices()
	asym := 0
	for u := range rows {
		for v := range rows[u] {
			switch {
			case u == v:
			case rng.Intn(20) == 0:
				rows[u][v] = Inf
			default:
				rows[u][v] += rows[u][v] * int64(rng.Intn(3))
			}
		}
	}
	for u := range rows {
		for v := range rows[u] {
			if rows[u][v] != rows[v][u] {
				asym++
			}
		}
	}
	if asym == 0 {
		t.Fatal("the asymmetric estimate came out symmetric")
	}
	d, err := DistancesFromSlices(rows)
	if err != nil {
		t.Fatal(err)
	}
	check("asymmetric", g, d)
	t.Logf("%d sweep cases and one asymmetric estimate (%d asymmetric entries) match", cases, asym)
}

func TestRouteTowardSmallHandExample(t *testing.T) {
	// 0 -1- 1 -1- 2 and a heavy direct 0-2 edge: the route 0→2 must go via 1.
	g := NewGraph(3)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 0, 2, 10)
	exact := Exact(g)
	if path, cost, err := RouteToward(g, 0, 2, exact.Row(2)); err != nil || !reflect.DeepEqual(path, []int{0, 1, 2}) || cost != 2 {
		t.Fatalf("RouteToward(0,2) = %v, %d, %v; want [0 1 2] at cost 2", path, cost, err)
	}
	if path, cost, err := RouteToward(g, 0, 0, exact.Row(0)); err != nil || !reflect.DeepEqual(path, []int{0}) || cost != 0 {
		t.Fatalf("RouteToward(0,0) = %v, %d, %v; want [0] at cost 0", path, cost, err)
	}
}

func TestRouteTowardDisconnected(t *testing.T) {
	// Components {0,1,2} (path) and {3,4}; an isolated node 5.
	g := NewGraph(6)
	mustAdd(t, g, 0, 1, 2)
	mustAdd(t, g, 1, 2, 2)
	mustAdd(t, g, 3, 4, 1)
	dist := Exact(g)
	if path, cost, err := RouteToward(g, 0, 2, dist.Row(2)); err != nil || !reflect.DeepEqual(path, []int{0, 1, 2}) || cost != 4 {
		t.Fatalf("in-component route 0→2 = %v, %d, %v", path, cost, err)
	}
	for _, p := range [][2]int{{0, 3}, {0, 4}, {0, 5}, {5, 0}, {5, 4}, {4, 1}} {
		path, _, err := RouteToward(g, p[0], p[1], dist.Row(p[1]))
		want := fmt.Sprintf("dead end at %d", p[0])
		if !errors.Is(err, ErrNoRoute) || !strings.Contains(err.Error(), want) || path != nil {
			t.Fatalf("unreachable route %d→%d = %v, %v; want an ErrNoRoute %s", p[0], p[1], path, err, want)
		}
	}

	// Forwarding over the whole graph must terminate without failures:
	// disconnected pairs are skipped, never looped on.
	stats, err := SimulateForwarding(g, dist)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("%d forwarding failures on a disconnected graph", stats.Failed)
	}
	if stats.Delivered != 8 {
		t.Fatalf("delivered %d in-component pairs, want 8", stats.Delivered)
	}
}

func TestSimulateForwardingValidation(t *testing.T) {
	g := RandomGraph(8, 5, 1)
	if _, err := SimulateForwarding(g, nil); err == nil {
		t.Fatal("nil distances accepted")
	}
	small, err := DistancesFromSlices([][]int64{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateForwarding(g, small); err == nil {
		t.Fatal("wrong dimension accepted")
	}
}

// TestRouteTowardSaturatingCost pins the Inf-saturation fix: a neighbor
// whose estimate is finite but whose w + d lands at or above Inf must not be
// elected as a "reachable" next hop — the pair is as unreachable as one
// with an infinite estimate.
func TestRouteTowardSaturatingCost(t *testing.T) {
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
	if path, _, err := RouteToward(g, 0, 2, dist.Row(2)); !errors.Is(err, ErrNoRoute) || !strings.Contains(err.Error(), "dead end at 0") {
		t.Fatalf("route 0→2 over a cost ≥ Inf = %v, %v; want a dead end at 0", path, err)
	}
	if path, cost, err := RouteToward(g, 0, 1, dist.Row(1)); err != nil || !reflect.DeepEqual(path, []int{0, 1}) || cost != 10 {
		t.Fatalf("finite-cost route 0→1 = %v, %d, %v; want [0 1]", path, cost, err)
	}

	// Forwarding counts the saturated pair as a failure instead of looping
	// on it: 0→2 dead-ends at 0, and the other five pairs deliver.
	stats, err := SimulateForwarding(g, dist)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 || stats.Delivered != 5 {
		t.Fatalf("stats %+v, want 1 failed and 5 delivered", stats)
	}
}

// TestRouteTowardNearInfStaysSelectable guards the other side of the
// saturation boundary: a candidate whose cost is large but strictly below
// Inf is still a valid next hop.
func TestRouteTowardNearInfStaysSelectable(t *testing.T) {
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
	// Cost through 1 is 5 + (Inf-20) = Inf-15 < Inf: reachable.
	if path, cost, err := RouteToward(g, 0, 2, dist.Row(2)); err != nil || !reflect.DeepEqual(path, []int{0, 1, 2}) || cost != 6 {
		t.Fatalf("route 0→2 = %v, %d, %v; want [0 1 2] (cost just below Inf)", path, cost, err)
	}
}

// TestSimulateForwardingZeroWeightStretch pins the stretch-accounting fix:
// a zero-weight shortest path realized at positive cost must land in the
// InfiniteStretch bucket, not be reported as stretch 1.0.
func TestSimulateForwardingZeroWeightStretch(t *testing.T) {
	// d(0,2) = 0 via the two zero-weight edges, but the estimate inflates
	// δ(1,2) to 8, so node 0 prefers the direct weight-7 edge.
	g := NewGraph(3)
	mustAdd(t, g, 0, 1, 0)
	mustAdd(t, g, 1, 2, 0)
	mustAdd(t, g, 0, 2, 7)
	misled, err := DistancesFromSlices([][]int64{
		{0, 0, 0},
		{0, 0, 8},
		{0, 8, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := SimulateForwarding(g, misled)
	if err != nil {
		t.Fatal(err)
	}
	// 0→2 crosses the heavy edge directly; 1→2 tie-breaks through node 0
	// (smaller index) and then crosses it as well.
	if stats.InfiniteStretch != 2 {
		t.Fatalf("InfiniteStretch = %d, want 2 (cost-7 routes over d=0)", stats.InfiniteStretch)
	}
	if stats.Failed != 0 || stats.Delivered != 6 {
		t.Fatalf("stats %+v, want all 6 pairs delivered", stats)
	}
	// The remaining zero-weight pairs route at cost 0 and keep stretch 1.
	if stats.WorstStretch > 1.0+1e-9 {
		t.Fatalf("WorstStretch %.3f, want 1.0 over the finite-stretch pairs", stats.WorstStretch)
	}
	if stats.MeanStretch > 1.0+1e-9 || stats.MeanStretch == 0 {
		t.Fatalf("MeanStretch %.3f, want 1.0", stats.MeanStretch)
	}

	// Over exact distances every delivered zero-weight pair routes at cost
	// 0: no infinite-stretch pairs. (Zero-weight ties can still make greedy
	// forwarding loop on some pairs — those count as Failed, not as
	// understated stretch.)
	stats, err = SimulateForwarding(g, Exact(g))
	if err != nil {
		t.Fatal(err)
	}
	if stats.InfiniteStretch != 0 {
		t.Fatalf("exact distances reported %d infinite-stretch pairs", stats.InfiniteStretch)
	}
	if stats.Delivered+stats.Failed != 6 || stats.WorstStretch > 1.0+1e-9 {
		t.Fatalf("exact-distance stats %+v", stats)
	}
}

// TestSimulateForwardingZeroWeightTieLoops pins the zero-weight routing loop
// greedy forwarding still has. On 0—1 (weight 0), 1—2 (weight 1), node 1
// routes toward destination 2 via node 0: the costs through 0
// (0 + d(0,2) = 1) and through 2 (1 + 0 = 1) tie, the deterministic
// tie-break picks the smaller index, and the packet bounces 0↔1. A search
// that falls back when greedy fails would deliver the pair.
func TestSimulateForwardingZeroWeightTieLoops(t *testing.T) {
	g := NewGraph(3)
	mustAdd(t, g, 0, 1, 0)
	mustAdd(t, g, 1, 2, 1)
	stats, err := SimulateForwarding(g, Exact(g))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed == 0 {
		t.Fatal("exact distances delivered every pair; the zero-weight loop this test pins is gone")
	}
}

func mustAdd(t *testing.T, g *Graph, u, v int, w int64) {
	t.Helper()
	if err := g.AddEdge(u, v, w); err != nil {
		t.Fatal(err)
	}
}

// routeTTLReference is the TTL-guarded walk the first-revisit guard
// replaced, kept verbatim as the differential reference: it follows a loop
// for 4n hops before it reports it.
func routeTTLReference(r *greedyRouterReference, u, v int, rows func(src int) []int) ([]int, int64, error) {
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

// TestRouteMatchesTTLReference routes every pair, in range or not, over
// random estimates that mix true distances with random values (loops),
// Inf and near-Inf entries (dead ends and saturation), and requires
// RouteToward's path, cost and error to match the TTL walk over next-hop
// tables of the same estimate exactly. Most graphs are small; four span
// more than one 64-node word of the visited set.
func TestRouteMatchesTTLReference(t *testing.T) {
	var delivered, loops, deadEnds int
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		if seed > 60 {
			n = 65 + rng.Intn(64)
		}
		g := RandomGraph(n, 9, seed)
		rows := Exact(g).ToSlices()
		for x := range rows {
			for v := range rows[x] {
				switch k := rng.Intn(10); {
				case k < 4 || x == v:
				case k < 8:
					rows[x][v] = rng.Int63n(30)
				case k == 8:
					rows[x][v] = Inf
				default:
					rows[x][v] = Inf - 1 - rng.Int63n(10)
				}
			}
		}
		d, err := DistancesFromSlices(rows)
		if err != nil {
			t.Fatal(err)
		}
		table := nextHopTablesReference(g, d)
		router := newGreedyRouterReference(g)
		col := make([]int64, n)
		for v := -1; v <= n; v++ {
			for x := range col {
				if v >= 0 && v < n {
					col[x] = d.At(x, v)
				}
			}
			for u := -1; u <= n; u++ {
				path, cost, err := RouteToward(g, u, v, col)
				wantPath, wantCost, wantErr := routeTTLReference(router, u, v, func(src int) []int { return table[src] })
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
				}
			}
		}
	}
	// The estimates must actually exercise every outcome.
	if delivered == 0 || loops == 0 || deadEnds == 0 {
		t.Fatalf("outcomes delivered=%d loops=%d dead-ends=%d: want each > 0", delivered, loops, deadEnds)
	}
}

// TestRouteParallelEdgeCostsLightest: of parallel edges, the next hop is
// elected over the lightest, so the route must be charged that edge's weight
// too, whichever order the edges were added in. Greedy forwarding over exact
// distances then realizes stretch 1.
func TestRouteParallelEdgeCostsLightest(t *testing.T) {
	g := NewGraph(3)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 0, 1, 5) // heavier, added last
	mustAdd(t, g, 1, 2, 2)
	exact := Exact(g)
	if _, cost, err := RouteToward(g, 0, 2, exact.Row(2)); err != nil || cost != 3 {
		t.Fatalf("RouteToward(0,2) cost %d, %v; want 3", cost, err)
	}
	st, err := SimulateForwarding(g, exact)
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
