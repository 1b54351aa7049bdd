package cliqueapsp

import (
	"errors"
	"fmt"
)

// This file keeps the path walk RouteToward replaced — a next-hop row per
// visited source, built from its neighbours' distance rows, then a walk over
// those rows — verbatim as the differential reference for
// TestPathMatchesNextHopReference (route_diff_test.go) and for
// TestSimulateForwardingMatchesTableReference and TestRouteMatchesTTLReference
// (routing_test.go). nextHopRowFromReference and routeViaReference are
// NextHopRowFrom and GreedyRouter.RouteVia as they stood, with only their
// names changed; the arcs helper came along with them. greedyRouterReference
// is GreedyRouter less its rows callback, which RouteVia never read, and
// simulateForwardingReference is SimulateForwarding as it stood over
// next-hop tables.

type wArcReference struct {
	to int
	w  int64
}

func arcsOfReference(g *Graph, u int) []wArcReference {
	out := g.inner.Out(u)
	arcs := make([]wArcReference, len(out))
	for i, a := range out {
		arcs[i] = wArcReference{to: a.To, w: a.W}
	}
	return arcs
}

func nextHopRowFromReference(g *Graph, src int, row func(x int) ([]int64, error)) ([]int, error) {
	n := g.N()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("cliqueapsp: source %d out of range for n=%d", src, n)
	}
	if row == nil {
		return nil, fmt.Errorf("cliqueapsp: nil row provider")
	}
	best := make([]int, n)
	bestCost := make([]int64, n)
	for v := range best {
		best[v] = -1
	}
	for _, a := range arcsOfReference(g, src) {
		if a.w >= Inf {
			continue
		}
		r, err := row(a.to)
		if err != nil {
			return nil, fmt.Errorf("cliqueapsp: next-hop row %d: distance row %d: %w", src, a.to, err)
		}
		if len(r) != n {
			return nil, fmt.Errorf("cliqueapsp: next-hop row %d: distance row %d has %d entries, want %d", src, a.to, len(r), n)
		}
		for v := 0; v < n; v++ {
			d := r[v]
			// Saturating addition, mirroring minplus.SatAdd: a candidate whose
			// cost lands at or above Inf is just as unreachable as one with an
			// infinite estimate and must not be elected. With both operands
			// below Inf the sum stays below MaxInt64/2, so the plain addition
			// cannot overflow.
			if d >= Inf {
				continue
			}
			cost := a.w + d
			if cost >= Inf {
				continue
			}
			if best[v] == -1 || cost < bestCost[v] || (cost == bestCost[v] && a.to < best[v]) {
				best[v], bestCost[v] = a.to, cost
			}
		}
	}
	best[src] = src
	return best, nil
}

// greedyRouterReference holds the per-node lightest-arc weights the
// reference walks charge.
type greedyRouterReference struct {
	n       int
	weights []map[int]int64 // per-node neighbor → edge weight
}

func newGreedyRouterReference(g *Graph) *greedyRouterReference {
	n := g.N()
	weights := make([]map[int]int64, n)
	for u := range weights {
		out := g.inner.Out(u)
		weights[u] = make(map[int]int64, len(out))
		for _, a := range out {
			// Of parallel edges, a packet takes the lightest, as the
			// next-hop election assumes.
			if w, ok := weights[u][a.To]; !ok || a.W < w {
				weights[u][a.To] = a.W
			}
		}
	}
	return &greedyRouterReference{n: n, weights: weights}
}

func (r *greedyRouterReference) routeViaReference(u, v int, rows func(src int) []int) ([]int, int64, error) {
	if u < 0 || u >= r.n || v < 0 || v >= r.n {
		return nil, 0, fmt.Errorf("cliqueapsp: route (%d,%d) out of range for n=%d", u, v, r.n)
	}
	path := []int{u}
	visited := make([]uint64, (r.n+63)/64) // one bit per node on the path
	visited[u/64] |= 1 << (u % 64)
	cur, cost := u, int64(0)
	for cur != v {
		nh := rows(cur)[v]
		if nh < 0 || nh == cur {
			return nil, 0, fmt.Errorf("%w: dead end at %d routing %d to %d", ErrNoRoute, cur, u, v)
		}
		w, exists := r.weights[cur][nh]
		if !exists {
			return nil, 0, fmt.Errorf("cliqueapsp: table routes %d->%d over a non-edge", cur, nh)
		}
		if visited[nh/64]&(1<<(nh%64)) != 0 {
			return nil, 0, fmt.Errorf("%w: loop routing %d to %d", ErrNoRoute, u, v)
		}
		visited[nh/64] |= 1 << (nh % 64)
		cost += w
		path = append(path, nh)
		cur = nh
	}
	return path, cost, nil
}

// NextHopReference answers path queries as the oracle did before it routed
// from the destination's row: the estimate D(u,v) from row u, then
// routeViaReference over next-hop rows nextHopRowFromReference builds, and
// memoizes, from row. It is exported to the package's external tests only.
type NextHopReference struct {
	g      *Graph
	row    func(x int) ([]int64, error)
	router *greedyRouterReference
	nh     map[int][]int
}

// NewNextHopReference builds the reference over g's distance rows.
func NewNextHopReference(g *Graph, row func(x int) ([]int64, error)) *NextHopReference {
	return &NextHopReference{g: g, row: row, router: newGreedyRouterReference(g), nh: map[int][]int{}}
}

// Path returns the route from u to v and its cost; reachable is false, with
// no error, when D(u,v) is infinite. A failed row read returns its error.
func (r *NextHopReference) Path(u, v int) (path []int, cost int64, reachable bool, err error) {
	du, err := r.row(u)
	if err != nil {
		return nil, 0, false, err
	}
	if du[v] >= Inf {
		return nil, 0, false, nil
	}
	var rerr error
	path, cost, err = r.router.routeViaReference(u, v, func(src int) []int {
		row, ok := r.nh[src]
		if !ok {
			if row, rerr = nextHopRowFromReference(r.g, src, r.row); rerr != nil {
				// A row of dead ends stops the walk at once.
				row = make([]int, r.g.N())
				for i := range row {
					row[i] = -1
				}
				return row
			}
			r.nh[src] = row
		}
		return row
	})
	if rerr != nil {
		return nil, 0, false, rerr
	}
	return path, cost, true, err
}

// nextHopTablesReference builds every node's next-hop row over the
// estimate's rows: table[u][v] is the neighbour x of u minimizing
// w(u,x) + δ(x,v), as NextHopTables did.
func nextHopTablesReference(g *Graph, d *DistanceMatrix) [][]int {
	table := make([][]int, g.N())
	for u := range table {
		row, err := nextHopRowFromReference(g, u, func(x int) ([]int64, error) { return d.Row(x), nil })
		if err != nil {
			panic(err) // unreachable: u is in range and rows are n long
		}
		table[u] = row
	}
	return table
}

func simulateForwardingReference(g *Graph, table [][]int) (ForwardingStats, error) {
	n := g.N()
	if len(table) != n {
		return ForwardingStats{}, fmt.Errorf("cliqueapsp: %d table rows for %d nodes", len(table), n)
	}
	router := newGreedyRouterReference(g)
	rows := func(src int) []int { return table[src] }
	exact := Exact(g)
	var stats ForwardingStats
	var sum float64
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || exact.At(u, v) >= Inf {
				continue
			}
			_, cost, err := router.routeViaReference(u, v, rows)
			if errors.Is(err, ErrNoRoute) {
				stats.Failed++
				continue
			}
			if err != nil {
				return ForwardingStats{}, err
			}
			stats.Delivered++
			stretch := 1.0
			if d := exact.At(u, v); d > 0 {
				stretch = float64(cost) / float64(d)
			} else if cost > 0 {
				// A zero-weight shortest path realized at positive cost has
				// unbounded stretch; folding it in as 1.0 would silently
				// under-report WorstStretch on zero-weight workloads.
				stats.InfiniteStretch++
				continue
			}
			sum += stretch
			if stretch > stats.WorstStretch {
				stats.WorstStretch = stretch
			}
		}
	}
	if finite := stats.Delivered - stats.InfiniteStretch; finite > 0 {
		stats.MeanStretch = sum / float64(finite)
	}
	return stats, nil
}

// GoldenRun is one golden-sweep run: the algorithm and seed that ran on
// Graph = RandomGraph(n, 100, seed), and its result. It is exported to the
// package's external tests.
type GoldenRun struct {
	Alg    Algorithm
	Seed   int64
	Graph  *Graph
	Result *Result
}

// GoldenRuns returns the runs TestGoldenModelCost pins, run once per test
// binary.
func GoldenRuns() ([]GoldenRun, error) {
	runs := make([]GoldenRun, len(goldenModelCost))
	for i, r := range goldenSweep() {
		if r.err != nil {
			return nil, r.err
		}
		runs[i] = GoldenRun{goldenModelCost[i].alg, goldenModelCost[i].seed, r.g, r.res}
	}
	return runs, nil
}
