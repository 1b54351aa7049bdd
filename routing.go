package cliqueapsp

import (
	"errors"
	"fmt"
)

// NextHopRow computes node src's next-hop row from a distance estimate:
// row[v] is the neighbor x of src minimizing w(src,x) + δ(x,v), ties to the
// smallest neighbor index, src itself for v == src, and -1 when v is
// unreachable from src's viewpoint. It is the per-source building block of
// NextHopTables, exposed so callers that only route from a few sources
// don't pay the full n² table build.
//
// The distances may come from any Run result (or Exact); with exact
// distances the row routes along true shortest paths.
func NextHopRow(g *Graph, distances *DistanceMatrix, src int) ([]int, error) {
	if err := checkDistances(g, distances); err != nil {
		return nil, err
	}
	n := g.N()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("cliqueapsp: source %d out of range for n=%d", src, n)
	}
	best := make([]int, n)
	bestCost := make([]int64, n)
	for v := range best {
		best[v] = -1
	}
	for _, a := range g.inner.Out(src) {
		if a.W >= Inf {
			continue
		}
		for v, d := range distances.Row(a.To) {
			// Saturating addition, mirroring minplus.SatAdd: a candidate whose
			// cost lands at or above Inf is just as unreachable as one with an
			// infinite estimate and must not be elected. With both operands
			// below Inf the sum stays below MaxInt64/2, so the plain addition
			// cannot overflow.
			if d >= Inf {
				continue
			}
			cost := a.W + d
			if cost >= Inf {
				continue
			}
			if best[v] == -1 || cost < bestCost[v] || (cost == bestCost[v] && a.To < best[v]) {
				best[v], bestCost[v] = a.To, cost
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
	table := make([][]int, g.N())
	for u := range table {
		row, err := NextHopRow(g, distances, u)
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
// say); the router adds the edge-weight bookkeeping and the loop guard.
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
	return &GreedyRouter{n: n, weights: weights, rows: rows}
}

// Route forwards one packet from u to v, returning the realized hop
// sequence (u..v inclusive) and its cost in edge weights. Dead ends and
// loops return ErrNoRoute; a row naming a non-neighbor as next hop is a
// corrupt-table error. A next hop depends only on the current node and v,
// so a walk that revisits a node would repeat itself forever: the first
// revisit is reported as the loop, after at most n row lookups.
func (r *GreedyRouter) Route(u, v int) ([]int, int64, error) {
	if u < 0 || u >= r.n || v < 0 || v >= r.n {
		return nil, 0, fmt.Errorf("cliqueapsp: route (%d,%d) out of range for n=%d", u, v, r.n)
	}
	path := []int{u}
	visited := make([]uint64, (r.n+63)/64) // one bit per node on the path
	visited[u/64] |= 1 << (u % 64)
	cur, cost := u, int64(0)
	for cur != v {
		nh := r.rows(cur)[v]
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

// RouteToward forwards one packet greedily from u to v, reading every hop
// off rowV, the estimate's distance row of the destination. At each node x
// it takes the neighbor w minimizing w(x,w) + rowV[w], ties to the smallest
// index; costs at or above Inf elect no hop. On a symmetric estimate rowV[w]
// is δ(w,v), so the walk follows exactly the hops NextHopTables would give,
// without building a next-hop row: one row serves every node on the route,
// and the walk scans only the route's adjacency.
//
// It returns the hop sequence (u..v inclusive) and the summed weights of
// the edges taken. A dead end and a loop (caught at the first revisit: a
// hop depends only on the node and v, so a revisit repeats forever) return
// ErrNoRoute, the expected outcome for unreachable pairs. Apart from the
// returned path it allocates nothing for n ≤ 4096.
func RouteToward(g *Graph, u, v int, rowV []int64) ([]int, int64, error) {
	n := g.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		return nil, 0, fmt.Errorf("cliqueapsp: route (%d,%d) out of range for n=%d", u, v, n)
	}
	if len(rowV) != n {
		return nil, 0, fmt.Errorf("cliqueapsp: distance row has %d entries, want %d", len(rowV), n)
	}
	var small [64]uint64 // one bit per node on the path
	visited := small[:]
	if words := (n + 63) / 64; words > len(small) {
		visited = make([]uint64, words)
	}
	visited[u/64] |= 1 << (u % 64)
	path := append(make([]int, 0, 8), u)
	cur, cost := u, int64(0)
	for cur != v {
		nh, nw, best := -1, int64(0), int64(0)
		for _, a := range g.inner.Out(cur) {
			// Saturating, as in NextHopRow: a cost at or above Inf elects
			// nothing.
			if a.W >= Inf || rowV[a.To] >= Inf {
				continue
			}
			c := a.W + rowV[a.To]
			if c >= Inf {
				continue
			}
			if nh == -1 || c < best || (c == best && a.To < nh) {
				nh, nw, best = a.To, a.W, c
			}
		}
		if nh < 0 {
			return nil, 0, fmt.Errorf("%w: dead end at %d routing %d to %d", ErrNoRoute, cur, u, v)
		}
		if visited[nh/64]&(1<<(nh%64)) != 0 {
			return nil, 0, fmt.Errorf("%w: loop routing %d to %d", ErrNoRoute, u, v)
		}
		visited[nh/64] |= 1 << (nh % 64)
		cost += nw
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
