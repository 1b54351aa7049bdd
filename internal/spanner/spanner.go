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
//     It returns the spanner's exact distance matrix with it: the greedy
//     scan needs d_sp(u,v) for every edge, so it keeps all of them up to
//     date as the spanner grows, and the spanner-broadcast bootstrap reads
//     the matrix instead of recomputing the spanner's APSP.
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
	"github.com/congestedclique/cliqueapsp/internal/minplus"
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
	edges := make([]edgeRec, 0, g.NumEdges())
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

// Greedy returns the greedy (2k−1)-spanner of g together with its exact
// distance matrix: edges are scanned in ascending weight order and kept only
// if the current spanner does not already provide a path of length
// ≤ (2k−1)·w. The result has at most n^{1+1/k} + n edges by the standard
// girth argument. Deterministic.
//
// The matrix equals the spanner's ExactAPSP entry for entry, Inf for an
// unreachable pair included. It is kept up to date as the spanner grows, so
// a rejected edge costs one O(1) lookup, and a kept edge (u,v,w) costs O(n)
// plus one relaxation per pair (x,y) the edge could shorten: x nearer to u
// than to v by more than w and y nearer to v than to u by more than w, or
// the mirror. That is at most n²/2 per kept edge, and far less while the
// edge joins two small components.
func Greedy(g *graph.Graph, k int) (*graph.Graph, *minplus.Dense) {
	if g.Directed() {
		panic("spanner: Greedy requires an undirected graph")
	}
	if k <= 1 {
		span := g.Clone().Normalize()
		return span, span.ExactAPSP()
	}
	n := g.N()
	edges := collectEdges(g)
	span := graph.New(n)
	d := minplus.Identity(n)
	var add incrementalAPSP
	add.init(n)
	stretch := int64(2*k - 1)
	for i := range edges {
		e := &edges[i]
		if d.At(e.u, e.v) <= stretchLimit(e.w, stretch) {
			continue
		}
		span.AddEdge(e.u, e.v, e.w)
		add.edge(d, e.u, e.v, e.w)
	}
	return span, d
}

// stretchLimit returns w·stretch, saturated at the largest finite distance
// Inf−1: a product past it would wrap, and every finite distance is within
// it anyway. An unreachable pair (at Inf) is never within the limit.
func stretchLimit(w, stretch int64) int64 {
	if w > (minplus.Inf-1)/stretch {
		return minplus.Inf - 1
	}
	return w * stretch
}

// incrementalAPSP holds the O(n) scratch of one edge insertion into an
// undirected all-pairs distance matrix.
type incrementalAPSP struct {
	du, dv []int64 // rows u and v before the insertion
	nearU  []int   // x with d(x,u)+w < d(x,v): x reaches v faster through u
	nearV  []int   // x with d(x,v)+w < d(x,u)
}

func (a *incrementalAPSP) init(n int) {
	a.du, a.dv = make([]int64, n), make([]int64, n)
	a.nearU, a.nearV = make([]int, 0, n), make([]int, 0, n)
}

// edge inserts the undirected edge (u,v,w) into the symmetric distance
// matrix d. A shortest path through the new edge runs x⇝u–v⇝y or
// x⇝v–u⇝y, and it beats d(x,y) only if both legs gain over reaching the
// far endpoint directly: x in nearU and y in nearV, or the mirror. Every
// other pair keeps its distance, so only those two blocks are relaxed.
func (a *incrementalAPSP) edge(d *minplus.Dense, u, v int, w int64) {
	copy(a.du, d.Row(u))
	copy(a.dv, d.Row(v))
	a.nearU, a.nearV = a.nearU[:0], a.nearV[:0]
	for x := range a.du {
		if minplus.SatAdd(a.du[x], w) < a.dv[x] {
			a.nearU = append(a.nearU, x)
		} else if minplus.SatAdd(a.dv[x], w) < a.du[x] {
			a.nearV = append(a.nearV, x)
		}
	}
	relax(d, a.nearU, a.nearV, a.du, a.dv, w)
	relax(d, a.nearV, a.nearU, a.dv, a.du, w)
}

// relax lowers d(x,y) to from[x]+w+to[y] for every x in xs and y in ys.
// No sum saturates: from[x]+w < to[x] ≤ Inf for x in xs and to[y] < Inf
// for y in ys, so a sum is below 2·Inf, and min keeps every entry ≤ Inf.
// The min is branch-free; which pairs improve is too irregular to predict.
func relax(d *minplus.Dense, xs, ys []int, from, to []int64, w int64) {
	for _, x := range xs {
		row, fx := d.Row(x), from[x]+w
		for _, y := range ys {
			row[y] = min(row[y], fx+to[y])
		}
	}
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
