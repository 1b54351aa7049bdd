package graph

import (
	"cmp"
	"slices"

	"github.com/congestedclique/cliqueapsp/internal/minplus"
	"github.com/congestedclique/cliqueapsp/internal/sched"
)

// Dijkstra returns the single-source shortest distances from src over the
// stored arcs, honouring the universal cap: with Cap > 0 every returned
// distance is min(stored-arc distance, Cap), because a weight-Cap arc exists
// between every pair and any path through a cap arc costs at least Cap.
func (g *Graph) Dijkstra(src int) []int64 {
	dist := make([]int64, g.n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	pq := DistHeap{a: make([]NodeDist, 0, g.n)}
	pq.Push(src, 0)
	for pq.Len() > 0 {
		cur := pq.Pop()
		if cur.Dist > dist[cur.Node] {
			continue
		}
		for _, a := range g.adj[cur.Node] {
			nd := minplus.SatAdd(cur.Dist, a.W)
			if nd < dist[a.To] {
				dist[a.To] = nd
				pq.Push(a.To, nd)
			}
		}
	}
	if g.cap > 0 {
		for v := range dist {
			if v != src && dist[v] > g.cap {
				dist[v] = g.cap
			}
		}
	}
	return dist
}

// HopLimited returns, for every node v, the minimum length of a path from
// src to v using at most hops arcs (Bellman–Ford with a hop budget). With a
// cap, any node is one hop away at weight Cap, so for hops ≥ 1 the result is
// clamped at Cap.
func (g *Graph) HopLimited(src, hops int) []int64 {
	dist := make([]int64, g.n)
	next := make([]int64, g.n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	for h := 0; h < hops; h++ {
		copy(next, dist)
		changed := false
		for u := 0; u < g.n; u++ {
			du := dist[u]
			if minplus.IsInf(du) {
				continue
			}
			for _, a := range g.adj[u] {
				if nd := minplus.SatAdd(du, a.W); nd < next[a.To] {
					next[a.To] = nd
					changed = true
				}
			}
		}
		dist, next = next, dist
		if !changed {
			break
		}
	}
	if g.cap > 0 && hops >= 1 {
		for v := range dist {
			if v != src && dist[v] > g.cap {
				dist[v] = g.cap
			}
		}
	}
	return dist
}

// ExactAPSP returns the full distance matrix of the graph, computed by one
// Dijkstra per source, fanned out over the shared compute pool. This is the
// centralized ground truth used by tests and benchmarks; it charges no
// Congested Clique rounds.
func (g *Graph) ExactAPSP() *minplus.Dense {
	d := minplus.NewDense(g.n)
	_ = sched.Background().ForN(g.n, 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			copy(d.Row(s), g.Dijkstra(s))
		}
	})
	return d
}

// WeightedDiameter returns the maximum finite pairwise distance, or 0 for a
// single node. Disconnected pairs (infinite distance) are ignored.
func (g *Graph) WeightedDiameter() int64 {
	return g.ExactAPSP().MaxFinite()
}

// IsConnected reports whether the graph is connected, ignoring arc
// directions and the cap (a capped graph is always connected).
func (g *Graph) IsConnected() bool {
	if g.cap > 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.adj[u] {
			if !seen[a.To] {
				seen[a.To] = true
				count++
				stack = append(stack, a.To)
			}
		}
	}
	if g.directed {
		// For directed graphs, treat arcs as undirected for connectivity by
		// also walking reverse arcs.
		rev := make([][]int, g.n)
		for u, arcs := range g.adj {
			for _, a := range arcs {
				rev[a.To] = append(rev[a.To], u)
			}
		}
		seen2 := make([]bool, g.n)
		stack = append(stack[:0], 0)
		seen2[0] = true
		count = 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range g.adj[u] {
				if !seen2[a.To] {
					seen2[a.To] = true
					count++
					stack = append(stack, a.To)
				}
			}
			for _, v := range rev[u] {
				if !seen2[v] {
					seen2[v] = true
					count++
					stack = append(stack, v)
				}
			}
		}
	}
	return count == g.n
}

// NodeDist is a (node, distance) pair used in k-nearest lists. Lists are
// ordered by (distance, node ID), matching the paper's tie-breaking rule.
type NodeDist struct {
	Node int
	Dist int64
}

// KNearestFrom returns the k nearest nodes from the distance vector dist
// (including the source itself, which appears at distance 0), ordered by
// (distance, node ID). Unreachable nodes (Inf) are excluded.
func KNearestFrom(dist []int64, k int) []NodeDist {
	nd := make([]NodeDist, 0, len(dist))
	for v, dv := range dist {
		if !minplus.IsInf(dv) {
			nd = append(nd, NodeDist{Node: v, Dist: dv})
		}
	}
	slices.SortFunc(nd, func(a, b NodeDist) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
	if len(nd) > k {
		nd = nd[:k]
	}
	return nd
}

// KNearest returns, for every node u, the k nearest nodes N_k(u) by exact
// distance (paper §2.1), including u itself at distance 0. This is the
// centralized reference against which the distributed §5 algorithm is
// validated.
func (g *Graph) KNearest(k int) [][]NodeDist {
	apsp := g.ExactAPSP()
	out := make([][]NodeDist, g.n)
	for u := 0; u < g.n; u++ {
		out[u] = KNearestFrom(apsp.Row(u), k)
	}
	return out
}

// KNearestHops returns, for every node u, the k nearest nodes by hop-limited
// distance N^h_k(u) (paper §2.1), including u itself.
func (g *Graph) KNearestHops(k, hops int) [][]NodeDist {
	out := make([][]NodeDist, g.n)
	for u := 0; u < g.n; u++ {
		out[u] = KNearestFrom(g.HopLimited(u, hops), k)
	}
	return out
}
