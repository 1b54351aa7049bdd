package cliqueapsp

import (
	"errors"
	"fmt"
)

// NextHopRow computes node src's next-hop row from a distance estimate:
// row[v] is the neighbor x of src minimizing w(src,x) + δ(x,v), src itself
// for v == src, and -1 when v is unreachable from src's viewpoint. It is the
// per-source building block of NextHopTables, exposed so callers that only
// route from a few sources (the oracle package memoizes rows per snapshot)
// don't pay the full n² table build.
//
// The distances may come from any Run result (or Exact); with exact
// distances the row routes along true shortest paths.
func NextHopRow(g *Graph, distances *DistanceMatrix, src int) ([]int, error) {
	if err := checkDistances(g, distances); err != nil {
		return nil, err
	}
	return NextHopRowFrom(g, src, residentRows(distances))
}

// residentRows is the row provider over a resident estimate; it never fails.
func residentRows(distances *DistanceMatrix) func(x int) ([]int64, error) {
	return func(x int) ([]int64, error) { return distances.Row(x), nil }
}

// NextHopRowFrom computes node src's next-hop row like NextHopRow, but
// resolves distance rows through row instead of a resident DistanceMatrix —
// the building block for estimates that live on disk (the tier package's
// snapshot readers). row(x) must return node x's full distance vector
// (length n, treated read-only); it is called once per neighbor of src, so a
// caching provider pays at most deg(src) row loads. Ties break toward the
// smallest neighbor index, so rows are deterministic per estimate and hot
// and cold serving produce identical routes.
func NextHopRowFrom(g *Graph, src int, row func(x int) ([]int64, error)) ([]int, error) {
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
	for _, a := range arcsOf(g, src) {
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

// NextHopTables derives greedy next-hop routing tables from a distance
// estimate: table[u][v] is NextHopRow(g, distances, u)[v]. This is the
// classic application of (approximate) APSP to network routing that
// motivates the problem (paper §1).
func NextHopTables(g *Graph, distances *DistanceMatrix) ([][]int, error) {
	if err := checkDistances(g, distances); err != nil {
		return nil, err
	}
	rows := residentRows(distances)
	table := make([][]int, g.N())
	for u := range table {
		row, err := NextHopRowFrom(g, u, rows)
		if err != nil {
			return nil, err
		}
		table[u] = row
	}
	return table, nil
}

// LoopFreeNextHopTables derives next-hop tables that greedy forwarding can
// never loop on, even across zero-weight ties. Plain NextHopTables over
// exact distances is loop-free only when every hop strictly decreases the
// remaining distance; a zero-weight edge makes the decrease non-strict, and
// the deterministic smallest-index tie-break can then bounce a packet
// between two nodes of a zero-weight component forever.
//
// The fix is the Theorem 2.1 trick in routing form: build the tables over
// the perturbed weights w'(e) = n·w(e) + 1. Every perturbed weight is ≥ 1,
// so greedy forwarding on exact perturbed distances strictly decreases per
// hop and must terminate; and since a path has at most n-1 edges, the
// perturbation never reorders paths of different true weight — a perturbed
// shortest path is a true shortest path (among them, one with fewest hops).
// Routing the returned tables on g therefore delivers every connected pair
// at exactly its true distance.
func LoopFreeNextHopTables(g *Graph) ([][]int, error) {
	pg, err := perturbedGraph(g)
	if err != nil {
		return nil, err
	}
	// pg has exactly g's adjacency, so its tables are valid next-hop tables
	// for g: only the tie-breaking — which neighbor gets picked — differs.
	return NextHopTables(pg, Exact(pg))
}

// perturbedGraph returns g with every weight mapped to n·w+1 (Theorem
// 2.1-style: zero weights become unit weights, order between distinct path
// weights is preserved). Weights so large that a perturbed distance could
// saturate at Inf are rejected.
func perturbedGraph(g *Graph) (*Graph, error) {
	n := int64(g.N())
	// A shortest path sums < n perturbed weights, so capping each at
	// Inf/n keeps every finite perturbed distance strictly below Inf.
	limit := (Inf/n - 1) / n
	pg := NewGraph(g.N())
	for _, e := range g.Edges() {
		if e.W > limit {
			return nil, fmt.Errorf("cliqueapsp: weight %d on {%d,%d} too large to perturb for n=%d (limit %d)",
				e.W, e.U, e.V, g.N(), limit)
		}
		if err := pg.AddEdge(e.U, e.V, e.W*n+1); err != nil {
			// Unreachable: e came out of a validated graph.
			panic(fmt.Sprintf("cliqueapsp: perturbing edge %+v: %v", e, err))
		}
	}
	return pg, nil
}

func checkDistances(g *Graph, distances *DistanceMatrix) error {
	if distances == nil {
		return fmt.Errorf("cliqueapsp: nil distance matrix")
	}
	if n := g.N(); distances.N() != n {
		return fmt.Errorf("cliqueapsp: %d×%d distances for %d nodes", distances.N(), distances.N(), n)
	}
	return nil
}

// ErrNoRoute reports that greedy forwarding hit a dead end or a loop before
// reaching the destination — possible when next hops come from approximate
// distances, and the expected outcome for unreachable pairs.
var ErrNoRoute = errors.New("cliqueapsp: greedy forwarding found no route")

// GreedyRouter walks greedy next-hop routes over per-source rows. The rows
// callback supplies each visited node's next-hop row (a NextHopTables row,
// a memoized NextHopRow, …); the router adds the edge-weight bookkeeping and
// the loop guard shared by SimulateForwarding and the oracle package.
type GreedyRouter struct {
	n       int
	weights []map[int]int64 // per-node neighbor → edge weight
	rows    func(src int) []int
}

// NewGreedyRouter builds a router for g (one O(m) pass over the edges)
// resolving hops through rows.
func NewGreedyRouter(g *Graph, rows func(src int) []int) *GreedyRouter {
	n := g.N()
	weights := make([]map[int]int64, n)
	for u, arcs := range adjacency(g) {
		weights[u] = make(map[int]int64, len(arcs))
		for _, a := range arcs {
			weights[u][a.to] = a.w
		}
	}
	return &GreedyRouter{n: n, weights: weights, rows: rows}
}

// Route forwards one packet from u to v, returning the realized hop
// sequence (u..v inclusive) and its cost in edge weights. Dead ends and
// loops return ErrNoRoute; a row naming a non-neighbor as next hop is a
// corrupt-table error. A next hop depends only on the current node and v,
// so a walk that revisits a node would repeat itself forever: the first
// revisit is reported as the loop, after at most n row lookups.
func (r *GreedyRouter) Route(u, v int) ([]int, int64, error) {
	return r.RouteVia(u, v, r.rows)
}

// RouteVia forwards one packet like Route, but resolves next-hop rows
// through the given callback instead of the router's own. It exists for row
// providers whose lookups can fail per call (a disk-backed snapshot, say):
// the caller wraps its fallible provider in a closure that records the error
// and returns a dead row, shares the router's O(m) weight tables across
// calls, and keeps each call's error slot private.
func (r *GreedyRouter) RouteVia(u, v int, rows func(src int) []int) ([]int, int64, error) {
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

// ForwardingStats summarizes a greedy-forwarding simulation over next-hop
// tables.
type ForwardingStats struct {
	// Delivered and Failed count source/destination pairs; failures are
	// routing loops or dead ends (possible when tables come from
	// approximate distances).
	Delivered, Failed int
	// InfiniteStretch counts delivered pairs whose exact distance is zero
	// (zero-weight shortest paths) but whose realized cost is positive: the
	// ratio is unbounded, so these pairs are reported here instead of being
	// folded into the stretch aggregates.
	InfiniteStretch int
	// WorstStretch and MeanStretch compare realized path length to the true
	// shortest path, over delivered pairs of finite stretch (a delivered
	// pair with d=0 and cost=0 contributes stretch 1; d=0 with cost>0 is
	// counted by InfiniteStretch and excluded).
	WorstStretch, MeanStretch float64
}

// SimulateForwarding forwards one packet per connected (source,
// destination) pair along the tables and measures the realized stretch
// against exact distances. Dead ends and loops (possible when tables come
// from approximate distances) count as failures; a table routing over a
// non-edge is an error.
func SimulateForwarding(g *Graph, table [][]int) (ForwardingStats, error) {
	n := g.N()
	if len(table) != n {
		return ForwardingStats{}, fmt.Errorf("cliqueapsp: %d table rows for %d nodes", len(table), n)
	}
	router := NewGreedyRouter(g, func(src int) []int { return table[src] })
	exact := Exact(g)
	var stats ForwardingStats
	var sum float64
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || exact.At(u, v) >= Inf {
				continue
			}
			_, cost, err := router.Route(u, v)
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

type wArc struct {
	to int
	w  int64
}

func adjacency(g *Graph) [][]wArc {
	adj := make([][]wArc, g.N())
	for u := range adj {
		adj[u] = arcsOf(g, u)
	}
	return adj
}

// ReusableNextHopSources reports, per source, whether a next-hop row
// memoized against a pre-repair snapshot is still byte-identical after an
// edge-delta repair of the distance matrix. A source's next-hop row depends
// only on its own adjacency and its neighbours' distance rows (see
// NextHopRowFrom), so the row survives exactly when the source is not an
// endpoint of any changed edge (touched) and no out-neighbour's distance
// row changed (changedRow). g is the post-delta graph; for an untouched
// source its adjacency there equals the pre-delta one.
func ReusableNextHopSources(g *Graph, touched map[int]bool, changedRow []bool) []bool {
	n := g.N()
	ok := make([]bool, n)
	for u := 0; u < n; u++ {
		if touched[u] {
			continue
		}
		keep := true
		for _, a := range g.inner.Out(u) {
			if a.To < len(changedRow) && changedRow[a.To] {
				keep = false
				break
			}
		}
		ok[u] = keep
	}
	return ok
}

// arcsOf returns node u's incident arcs without materializing the full edge
// list (the graph stores both directions of every undirected edge).
func arcsOf(g *Graph, u int) []wArc {
	out := g.inner.Out(u)
	arcs := make([]wArc, len(out))
	for i, a := range out {
		arcs[i] = wArc{to: a.To, w: a.W}
	}
	return arcs
}
