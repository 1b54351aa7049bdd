// Package spanner implements multiplicative graph spanners, the substrate
// behind the paper's O(log n)-approximation bootstrap (Lemma 7.1,
// Corollaries 7.1 and 7.2, both due to Chechik–Zhang [CZ22]).
//
// Two constructions are provided:
//
//   - BaswanaSen: the classical randomized clustering construction with
//     stretch 2k−1 and expected O(k·n^{1+1/k}) edges, matching the second
//     bullet of Lemma 7.1. The clustering structure mirrors what the
//     O(1)-round CZ22 algorithm computes; callers charge rounds per CZ22.
//
//   - Greedy: the Althöfer et al. greedy spanner with stretch 2k−1 and at
//     most n^{1+1/k}+n edges (girth argument) — the functional stand-in for
//     the (1+ε)(2k−1)-stretch, O(n^{1+1/k})-edge first bullet of Lemma 7.1
//     (it strictly dominates that guarantee in both stretch and size).
//
// Stretch is a deterministic property of both constructions; only the size
// of Baswana–Sen is random. Tests verify both properties.
package spanner

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"github.com/congestedclique/cliqueapsp/internal/graph"
)

// edgeRec is an internal undirected edge record with liveness tracking for
// the Baswana–Sen deletion process.
type edgeRec struct {
	u, v  int
	w     int64
	alive bool
}

func (e *edgeRec) other(x int) int {
	if e.u == x {
		return e.v
	}
	return e.u
}

// collectEdges extracts each undirected edge of g exactly once,
// deterministically ordered.
func collectEdges(g *graph.Graph) []edgeRec {
	var edges []edgeRec
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Out(u) {
			if u < a.To {
				edges = append(edges, edgeRec{u: u, v: a.To, w: a.W, alive: true})
			}
		}
	}
	slices.SortFunc(edges, func(a, b edgeRec) int {
		if c := cmp.Compare(a.w, b.w); c != 0 {
			return c
		}
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	return edges
}

// BaswanaSen returns a (2k−1)-spanner of the undirected graph g with
// expected O(k·n^{1+1/k}) edges. The stretch guarantee holds for every
// random outcome. k must be ≥ 1; k = 1 returns a copy of g.
func BaswanaSen(g *graph.Graph, k int, rng *rand.Rand) *graph.Graph {
	if g.Directed() {
		panic("spanner: BaswanaSen requires an undirected graph")
	}
	if k <= 1 {
		return g.Clone().Normalize()
	}
	n := g.N()
	edges := collectEdges(g)
	incident := make([][]int, n)
	for i := range edges {
		incident[edges[i].u] = append(incident[edges[i].u], i)
		incident[edges[i].v] = append(incident[edges[i].v], i)
	}

	span := graph.New(n)
	addSpan := func(e *edgeRec) { span.AddEdge(e.u, e.v, e.w) }

	// cluster[v] = center of v's cluster at the current level, or -1 once v
	// has dropped out of phase 1.
	cluster := make([]int, n)
	for v := range cluster {
		cluster[v] = v
	}
	p := math.Pow(float64(n), -1.0/float64(k))

	// killEdgesTo removes all alive edges between v and cluster center c.
	killEdgesTo := func(v, c int) {
		for _, ei := range incident[v] {
			e := &edges[ei]
			if !e.alive {
				continue
			}
			o := e.other(v)
			if cluster[o] == c {
				e.alive = false
			}
		}
	}

	for i := 1; i <= k-1; i++ {
		// Sample current clusters.
		sampled := make(map[int]bool)
		for v := 0; v < n; v++ {
			if cluster[v] == v && rng.Float64() < p { // v is a live center
				sampled[v] = true
			}
		}
		next := make([]int, n)
		for v := range next {
			next[v] = -1
		}
		for v := 0; v < n; v++ {
			if cluster[v] == -1 {
				continue
			}
			if sampled[cluster[v]] {
				next[v] = cluster[v]
				continue
			}
			// Lightest alive edge from v to each adjacent cluster.
			type best struct {
				ei int
				w  int64
			}
			perCluster := make(map[int]best)
			for _, ei := range incident[v] {
				e := &edges[ei]
				if !e.alive {
					continue
				}
				o := e.other(v)
				co := cluster[o]
				if co == -1 {
					continue
				}
				b, ok := perCluster[co]
				if !ok || e.w < b.w || (e.w == b.w && ei < b.ei) {
					perCluster[co] = best{ei: ei, w: e.w}
				}
			}
			// Lightest edge into a *sampled* adjacent cluster, deterministic
			// tiebreak by (weight, center ID).
			bestSampled, bestCenter := -1, -1
			var bestW int64
			for c, b := range perCluster {
				if !sampled[c] {
					continue
				}
				if bestSampled == -1 || b.w < bestW || (b.w == bestW && c < bestCenter) {
					bestSampled, bestCenter, bestW = b.ei, c, b.w
				}
			}
			if bestSampled == -1 {
				// No adjacent sampled cluster: keep one lightest edge per
				// adjacent cluster and drop out of phase 1.
				for c, b := range perCluster {
					addSpan(&edges[b.ei])
					killEdgesTo(v, c)
				}
				continue
			}
			// Join the sampled cluster; keep lighter edges to other clusters.
			joinCenter := bestCenter
			addSpan(&edges[bestSampled])
			next[v] = joinCenter
			for c, b := range perCluster {
				if c == joinCenter {
					continue
				}
				if b.w < bestW {
					addSpan(&edges[b.ei])
					killEdgesTo(v, c)
				}
			}
			killEdgesTo(v, joinCenter)
		}
		cluster = next
	}

	// Phase 2: every vertex keeps one lightest alive edge into each adjacent
	// final-level cluster.
	for v := 0; v < n; v++ {
		type best struct {
			ei int
			w  int64
		}
		perCluster := make(map[int]best)
		for _, ei := range incident[v] {
			e := &edges[ei]
			if !e.alive {
				continue
			}
			o := e.other(v)
			co := cluster[o]
			if co == -1 {
				continue
			}
			b, ok := perCluster[co]
			if !ok || e.w < b.w || (e.w == b.w && ei < b.ei) {
				perCluster[co] = best{ei: ei, w: e.w}
			}
		}
		for _, b := range perCluster {
			addSpan(&edges[b.ei])
		}
	}

	return span.Normalize()
}

// Greedy returns the greedy (2k−1)-spanner of g: edges are scanned in
// ascending weight order and kept only if the current spanner does not
// already provide a path of length ≤ (2k−1)·w. The result has at most
// n^{1+1/k} + n edges by the standard girth argument. Deterministic.
func Greedy(g *graph.Graph, k int) *graph.Graph {
	if g.Directed() {
		panic("spanner: Greedy requires an undirected graph")
	}
	if k <= 1 {
		return g.Clone().Normalize()
	}
	n := g.N()
	edges := collectEdges(g)
	span := graph.New(n)
	stretch := int64(2*k - 1)
	search := newBoundedSearch(n)
	for i := range edges {
		e := &edges[i]
		limit := e.w * stretch
		if search.distanceAtMost(span, e.u, e.v, limit) {
			continue
		}
		span.AddEdge(e.u, e.v, e.w)
	}
	return span
}

// boundedSearch is the reusable state of Greedy's bounded Dijkstra. dist[v]
// is valid only while stamp[v] equals the current generation gen, so each
// search starts clean by bumping gen instead of clearing dist, and a warm
// search allocates nothing.
type boundedSearch struct {
	dist  []int64
	stamp []uint32
	gen   uint32
	pq    graph.DistHeap
}

func newBoundedSearch(n int) *boundedSearch {
	return &boundedSearch{dist: make([]int64, n), stamp: make([]uint32, n)}
}

// distanceAtMost reports whether d_sp(src,dst) ≤ limit, abandoning paths
// longer than limit.
func (s *boundedSearch) distanceAtMost(sp *graph.Graph, src, dst int, limit int64) bool {
	s.gen++
	if s.gen == 0 { // wrapped: stamps from 2³² searches ago would look current
		clear(s.stamp)
		s.gen = 1
	}
	gen := s.gen
	s.stamp[src], s.dist[src] = gen, 0
	s.pq.Reset()
	s.pq.Push(src, 0)
	for s.pq.Len() > 0 {
		cur := s.pq.Pop()
		if cur.Dist > limit {
			return false
		}
		if cur.Node == dst {
			return true
		}
		if cur.Dist > s.dist[cur.Node] {
			continue
		}
		for _, a := range sp.Out(cur.Node) {
			nd := cur.Dist + a.W
			if nd > limit {
				continue
			}
			if s.stamp[a.To] != gen || nd < s.dist[a.To] {
				s.stamp[a.To], s.dist[a.To] = gen, nd
				s.pq.Push(a.To, nd)
			}
		}
	}
	return false
}

// MaxStretch returns the maximum observed stretch d_s(u,v)/d_g(u,v) over all
// pairs reachable in g, computed exactly. It is the verification oracle for
// the spanner guarantees (it must be ≤ 2k−1).
func MaxStretch(g, s *graph.Graph) float64 {
	dg := g.ExactAPSP()
	ds := s.ExactAPSP()
	worst := 1.0
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			duv := dg.At(u, v)
			if duv <= 0 || graph.Inf <= duv {
				continue
			}
			r := float64(ds.At(u, v)) / float64(duv)
			if r > worst {
				worst = r
			}
		}
	}
	return worst
}

// IsSubgraph reports whether every edge of s appears in g with weight at
// least as small in g (spanners must be subgraphs).
func IsSubgraph(s, g *graph.Graph) bool {
	type key struct{ u, v int }
	weights := make(map[key]int64)
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Out(u) {
			k := key{u, a.To}
			if w, ok := weights[k]; !ok || a.W < w {
				weights[k] = a.W
			}
		}
	}
	for u := 0; u < s.N(); u++ {
		for _, a := range s.Out(u) {
			w, ok := weights[key{u, a.To}]
			if !ok || a.W < w {
				return false
			}
		}
	}
	return true
}
