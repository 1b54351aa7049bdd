// Package graph provides the weighted-graph substrate for the Congested
// Clique APSP algorithms: graph representation (including the implicitly
// "capped" graphs of the weight-scaling construction, paper §8.1), shortest
// path references (Dijkstra, hop-limited Bellman–Ford, exact APSP), k-nearest
// reference computations, and workload generators.
package graph

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/congestedclique/cliqueapsp/internal/minplus"
)

// Inf re-exports the tropical infinity for convenience.
const Inf = minplus.Inf

// Arc is a directed, weighted edge endpoint stored in an adjacency list.
type Arc struct {
	To int
	W  int64
}

// Graph is a weighted graph on nodes 0..n-1, stored as adjacency lists of
// out-arcs. Undirected graphs store both arc directions.
//
// A Graph may carry an optional Cap: Cap > 0 means that, in addition to the
// stored arcs, an arc of weight Cap exists between every ordered pair of
// distinct nodes. This models the graphs K_i of the weight-scaling lemma
// (paper §8.1), which add a weight-x·B·h² edge between every pair, without
// materializing Θ(n²) edges. All shortest-path helpers in this package
// honour the cap.
type Graph struct {
	n        int
	directed bool
	cap      int64
	adj      [][]Arc
	arcs     int
}

// New returns an empty undirected graph on n nodes.
func New(n int) *Graph { return newGraph(n, false) }

// NewDirected returns an empty directed graph on n nodes.
func NewDirected(n int) *Graph { return newGraph(n, true) }

func newGraph(n int, directed bool) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("graph: invalid node count %d", n))
	}
	return &Graph{n: n, directed: directed, adj: make([][]Arc, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumArcs returns the number of stored arcs (an undirected edge counts as
// two arcs). Implicit cap arcs are not counted.
func (g *Graph) NumArcs() int { return g.arcs }

// NumEdges returns the number of undirected edges for undirected graphs, or
// the arc count for directed graphs.
func (g *Graph) NumEdges() int {
	if g.directed {
		return g.arcs
	}
	return g.arcs / 2
}

// Cap returns the universal cap weight, or 0 if the graph has no cap.
func (g *Graph) Cap() int64 { return g.cap }

// SetCap installs a universal cap: an implicit arc of weight cap between
// every ordered pair of distinct nodes. cap must be positive.
func (g *Graph) SetCap(cap int64) {
	if cap <= 0 {
		panic(fmt.Sprintf("graph: invalid cap %d", cap))
	}
	g.cap = cap
}

// AddEdge adds an undirected edge {u,v} with weight w. It panics on directed
// graphs, invalid endpoints, self loops, or negative weights. Zero weights
// are permitted (they are the subject of Theorem 2.1); algorithms that
// require positive weights validate separately via RequirePositiveWeights.
func (g *Graph) AddEdge(u, v int, w int64) {
	if g.directed {
		panic("graph: AddEdge on directed graph; use AddArc")
	}
	g.checkEndpoints(u, v, w)
	g.adj[u] = append(g.adj[u], Arc{To: v, W: w})
	g.adj[v] = append(g.adj[v], Arc{To: u, W: w})
	g.arcs += 2
}

// AddArc adds a directed arc u→v with weight w.
func (g *Graph) AddArc(u, v int, w int64) {
	if !g.directed {
		panic("graph: AddArc on undirected graph; use AddEdge")
	}
	g.checkEndpoints(u, v, w)
	g.adj[u] = append(g.adj[u], Arc{To: v, W: w})
	g.arcs++
}

// Weight returns the weight of the lightest stored edge between u and v and
// whether any such edge exists. Implicit cap arcs are not consulted.
func (g *Graph) Weight(u, v int) (int64, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	w, found := int64(0), false
	for _, a := range g.adj[u] {
		if a.To == v && (!found || a.W < w) {
			w, found = a.W, true
		}
	}
	return w, found
}

// SetEdgeWeight reweights the undirected edge {u,v} in place, updating both
// arc directions. It reports whether the edge existed; when parallel arcs
// exist all of them take the new weight. It panics on directed graphs or
// invalid (u, v, w) exactly like AddEdge.
func (g *Graph) SetEdgeWeight(u, v int, w int64) bool {
	if g.directed {
		panic("graph: SetEdgeWeight on directed graph")
	}
	g.checkEndpoints(u, v, w)
	found := false
	for _, pair := range [2][2]int{{u, v}, {v, u}} {
		arcs := g.adj[pair[0]]
		for i := range arcs {
			if arcs[i].To == pair[1] {
				arcs[i].W = w
				found = true
			}
		}
	}
	return found
}

// RemoveEdge removes the undirected edge {u,v}, deleting both arc
// directions (and all parallel copies). It reports whether any edge was
// removed. It panics on directed graphs or out-of-range endpoints.
func (g *Graph) RemoveEdge(u, v int) bool {
	if g.directed {
		panic("graph: RemoveEdge on directed graph")
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: endpoint out of range: (%d,%d) with n=%d", u, v, g.n))
	}
	removed := false
	for _, pair := range [2][2]int{{u, v}, {v, u}} {
		arcs := g.adj[pair[0]]
		out := arcs[:0]
		for _, a := range arcs {
			if a.To == pair[1] {
				removed = true
				g.arcs--
				continue
			}
			out = append(out, a)
		}
		g.adj[pair[0]] = out
	}
	return removed
}

func (g *Graph) checkEndpoints(u, v int, w int64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: endpoint out of range: (%d,%d) with n=%d", u, v, g.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self loop at %d", u))
	}
	if w < 0 {
		panic(fmt.Sprintf("graph: negative weight %d", w))
	}
}

// Out returns the stored out-arcs of u. Callers must not modify the returned
// slice. Implicit cap arcs are not included; use LightestOut or the
// shortest-path helpers for cap-aware views.
func (g *Graph) Out(u int) []Arc { return g.adj[u] }

// HasZeroWeights reports whether any stored arc has weight zero.
func (g *Graph) HasZeroWeights() bool {
	for _, arcs := range g.adj {
		for _, a := range arcs {
			if a.W == 0 {
				return true
			}
		}
	}
	return false
}

// RequirePositiveWeights returns an error if any stored arc has weight < 1.
func (g *Graph) RequirePositiveWeights() error {
	for u, arcs := range g.adj {
		for _, a := range arcs {
			if a.W < 1 {
				return fmt.Errorf("graph: non-positive weight %d on arc %d->%d", a.W, u, a.To)
			}
		}
	}
	return nil
}

// MaxWeight returns the largest stored arc weight (and the cap, if larger),
// or 0 for an empty graph.
func (g *Graph) MaxWeight() int64 {
	m := g.cap
	for _, arcs := range g.adj {
		for _, a := range arcs {
			if a.W > m {
				m = a.W
			}
		}
	}
	return m
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, directed: g.directed, cap: g.cap, arcs: g.arcs, adj: make([][]Arc, g.n)}
	for u, arcs := range g.adj {
		c.adj[u] = append([]Arc(nil), arcs...)
	}
	return c
}

// AsDirected returns a directed view of the graph: for undirected graphs a
// new directed graph with both arc directions; for directed graphs a clone.
func (g *Graph) AsDirected() *Graph {
	c := g.Clone()
	c.directed = true
	return c
}

// Normalize merges parallel arcs keeping the minimum weight and sorts each
// adjacency list by (To, W). It returns the receiver for chaining.
func (g *Graph) Normalize() *Graph {
	total := 0
	for u := range g.adj {
		arcs := g.adj[u]
		slices.SortFunc(arcs, compareToW)
		out := arcs[:0]
		for _, a := range arcs {
			if len(out) > 0 && out[len(out)-1].To == a.To {
				continue // keep the lighter arc, which sorts first
			}
			out = append(out, a)
		}
		g.adj[u] = out
		total += len(out)
	}
	g.arcs = total
	return g
}

// UnionDirected returns the directed union of g and h (same node count):
// all arcs of both, parallel arcs merged keeping minimum weight. The cap of
// the result is the minimum positive cap of the inputs (a tighter universal
// edge subsumes a looser one).
func UnionDirected(g, h *Graph) *Graph {
	if g.n != h.n {
		panic(fmt.Sprintf("graph: union size mismatch %d vs %d", g.n, h.n))
	}
	u := NewDirected(g.n)
	for node := 0; node < g.n; node++ {
		u.adj[node] = append(u.adj[node], g.adj[node]...)
		u.adj[node] = append(u.adj[node], h.adj[node]...)
	}
	u.arcs = g.arcs + h.arcs
	switch {
	case g.cap > 0 && h.cap > 0:
		u.cap = min64(g.cap, h.cap)
	case g.cap > 0:
		u.cap = g.cap
	case h.cap > 0:
		u.cap = h.cap
	}
	return u.Normalize()
}

// UndirectedUnion returns the undirected union of an undirected graph g and
// a directed arc set h (typically a hopset): edge {u,v} gets weight
// min(w_g(u,v), w_h(u→v), w_h(v→u)). Hopset arc weights are real path
// lengths (≥ true distance), so the symmetrization preserves distances and
// only improves hop counts — this is how the §8 pipeline treats G∪H as an
// undirected graph.
func UndirectedUnion(g, h *Graph) *Graph {
	if g.Directed() {
		panic("graph: UndirectedUnion requires an undirected base graph")
	}
	if g.n != h.n {
		panic(fmt.Sprintf("graph: union size mismatch %d vs %d", g.n, h.n))
	}
	best := make(map[[2]int]int64)
	consider := func(u, v int, w int64) {
		k := [2]int{u, v}
		if u > v {
			k = [2]int{v, u}
		}
		if old, ok := best[k]; !ok || w < old {
			best[k] = w
		}
	}
	for u := 0; u < g.n; u++ {
		for _, a := range g.adj[u] {
			consider(u, a.To, a.W)
		}
		for _, a := range h.adj[u] {
			consider(u, a.To, a.W)
		}
	}
	out := New(g.n)
	for k, w := range best {
		out.AddEdge(k[0], k[1], w)
	}
	switch {
	case g.cap > 0 && h.cap > 0:
		out.cap = min64(g.cap, h.cap)
	case g.cap > 0:
		out.cap = g.cap
	case h.cap > 0:
		out.cap = h.cap
	}
	return out.Normalize()
}

// LightestOut returns the k lightest effective out-arcs of u, ordered by
// (weight, destination ID). The effective out-neighbourhood accounts for the
// cap: with Cap > 0, every node v ≠ u is reachable with weight
// min(stored weight, Cap). Duplicate stored arcs are merged to their minimum.
//
// This realises "the √n shortest outgoing edges from u" of the hopset
// algorithm (paper §4.1, Step 2) and the per-row filtering of the k-nearest
// algorithm (paper §5.2, Step 1) on both plain and capped graphs.
func (g *Graph) LightestOut(u, k int) []Arc {
	if k <= 0 {
		return nil
	}
	adj := g.adj[u]
	room := len(adj)
	if g.cap > 0 {
		room += min(k, g.n) // the cap band is built in the tail
	}
	arcs := append(make([]Arc, 0, room), adj...)
	if g.cap > 0 {
		for i := range arcs {
			arcs[i].W = min(arcs[i].W, g.cap)
		}
	}
	// Merge parallel arcs: sorted by (To, W), the lightest arc to each
	// destination comes first and CompactFunc keeps it.
	slices.SortFunc(arcs, compareToW)
	arcs = slices.CompactFunc(arcs, func(a, b Arc) bool { return a.To == b.To })
	if g.cap == 0 {
		slices.SortFunc(arcs, compareWTo)
		if len(arcs) > k {
			arcs = arcs[:k]
		}
		return arcs
	}
	// With a cap, nodes without a lighter stored arc sit at weight == cap,
	// tie-broken by ascending ID. Stored arcs at weight < cap come first;
	// then the weight-cap band is filled in ID order. Stored arcs clamped to
	// exactly cap are indistinguishable from the synthetic universal arcs,
	// so they compete purely by ID. arcs is still in To order here, so the
	// band skips the stored arcs below the cap by walking it alongside v.
	m := len(arcs)
	under := 0
	for _, a := range arcs {
		if a.W < g.cap {
			under++
		}
	}
	for v, j := 0, 0; v < g.n && under+len(arcs)-m < k; v++ {
		for j < m && arcs[j].To < v {
			j++
		}
		if v == u || (j < m && arcs[j].To == v && arcs[j].W < g.cap) {
			continue
		}
		arcs = append(arcs, Arc{To: v, W: g.cap})
	}
	head := slices.DeleteFunc(arcs[:m], func(a Arc) bool { return a.W >= g.cap })
	slices.SortFunc(head, compareWTo)
	if len(head) >= k {
		return head[:k]
	}
	return append(head, arcs[m:]...)
}

func compareToW(a, b Arc) int {
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	return cmp.Compare(a.W, b.W)
}

func compareWTo(a, b Arc) int {
	if c := cmp.Compare(a.W, b.W); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
