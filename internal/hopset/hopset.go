// Package hopset implements the paper's k-nearest β-hopsets (§4, Lemma 3.2):
// given an a-approximation of APSP, it computes in O(1) rounds a set H of
// shortcut arcs such that, in G∪H, every node reaches each of its k-nearest
// nodes by a path of at most β ∈ O(a·log d) hops with exactly the original
// distance, where d is the weighted diameter.
//
// The construction is the paper's (§4.1): every node v selects its
// approximate k-nearest set Ñk(v) from the given estimate, asks each member
// for its k lightest outgoing edges, runs a local shortest-path computation
// on the received subgraph, and installs the resulting local distances as
// shortcut arcs. The communication is audited: requests are plain routing
// (Lemma 2.1 budgets) and replies use the duplication-friendly routing of
// Lemma 2.2, since every queried node sends the same edge list to all its
// requesters.
package hopset

import (
	"fmt"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
)

// Build computes a k-nearest β-hopset of g from the APSP approximation
// delta (row v = node v's estimates; delta must dominate true distances).
// g may be directed or undirected and may carry a cap. The returned graph
// holds the directed hopset arcs; both endpoints of each arc know it, per
// the paper's final exchange step.
func Build(clq *cc.Clique, g *graph.Graph, delta *minplus.Dense, k int) (*graph.Graph, error) {
	n := g.N()
	if delta.N() != n {
		return nil, fmt.Errorf("hopset: estimate dimension %d != graph size %d", delta.N(), n)
	}
	if k < 1 {
		return nil, fmt.Errorf("hopset: invalid k %d", k)
	}
	if k > n {
		k = n
	}

	// Step 1 (local): approximate k-nearest sets from the estimate.
	near := make([][]minplus.Entry, n)
	for v := 0; v < n; v++ {
		near[v] = delta.KSmallestInRow(v, k)
	}

	// Step 2a: each v requests the k lightest out-edges from every u∈Ñk(v).
	requests := make([]cc.Message, 0, n*k)
	for v := 0; v < n; v++ {
		for _, e := range near[v] {
			if e.Col == v {
				continue
			}
			requests = append(requests, cc.Message{From: v, To: e.Col})
		}
	}
	reqInbox := clq.Route(requests, cc.RouteOpts{
		SendBudget: int64(k),
		RecvBudget: int64(n),
		Note:       "hopset edge requests",
	})

	// Step 2b: replies. Every queried node u answers with its k lightest
	// outgoing edges — identical content to all requesters, so the CFG+20
	// duplicable routing applies; each v receives ≤ k·2k words.
	lightest := make([][]graph.Arc, n)
	replies := make([]cc.Message, 0, len(requests))
	for u := 0; u < n; u++ {
		if len(reqInbox[u]) == 0 {
			continue
		}
		lightest[u] = g.LightestOut(u, k)
		payload := encodeArcs(lightest[u])
		for _, req := range reqInbox[u] {
			replies = append(replies, cc.Message{From: u, To: req.From, Payload: payload})
		}
	}
	recvBudget := int64(2*k*k + n)
	repInbox := clq.Route(replies, cc.RouteOpts{
		Duplicable: true,
		RecvBudget: recvBudget,
		Note:       "hopset edge replies",
	})

	// Step 3 (local): shortest paths on the received subgraph plus v's own
	// outgoing edges. Step 4: install shortcut arcs to Ñk(v).
	h := graph.NewDirected(n)
	notify := make([]cc.Message, 0, n*k)
	local := newLocalSearch(n)
	for v := 0; v < n; v++ {
		dist := local.run(v, ownArcs(g, v), repInbox[v])
		for _, e := range near[v] {
			u := e.Col
			if u == v || minplus.IsInf(dist[u]) {
				continue
			}
			h.AddArc(v, u, dist[u])
			notify = append(notify, cc.Message{From: v, To: u, Payload: []cc.Word{int64(v), dist[u]}})
		}
	}
	// Final exchange: each hopset arc becomes known to both endpoints
	// (paper §4.1: "simply having v send the edge e to u … in a single
	// round"). The data is routed; the arc set is already in h.
	clq.Route(notify, cc.RouteOpts{
		SendBudget: int64(2 * k),
		RecvBudget: int64(2 * n),
		Note:       "hopset arc notification",
	})

	return h.Normalize(), nil
}

// HopBound returns the proven hop bound β for a hopset built from an
// a-approximation on a graph of weighted diameter d: the Lemma 4.2 argument
// yields at most ⌈a·ln d⌉+2 segments of two hops each.
func HopBound(a float64, diameter int64) int {
	if a < 1 {
		a = 1
	}
	if diameter < 2 {
		diameter = 2
	}
	lnD := 0.0
	for p := int64(1); p < diameter; p *= 2 {
		lnD++
	}
	// ln d ≤ log2 d; use the (looser) log2-based bound to stay integral.
	return 2 * (int(a*lnD) + 2)
}

// ownArcs returns v's effective outgoing arcs, materializing cap arcs if the
// graph is capped (the local computation is free; no communication).
func ownArcs(g *graph.Graph, v int) []graph.Arc {
	if g.Cap() == 0 {
		return g.Out(v)
	}
	return g.LightestOut(v, g.N())
}

func encodeArcs(arcs []graph.Arc) []cc.Word {
	payload := make([]cc.Word, 0, 2*len(arcs))
	for _, a := range arcs {
		payload = append(payload, int64(a.To), a.W)
	}
	return payload
}

// localSearch is the reusable state of step 3. Each node's received
// subgraph is indexed by a dense per-node table whose replies are decoded
// into one shared arena, and one distance vector serves every node: run
// resets the entries the previous search touched instead of reallocating.
type localSearch struct {
	adj     [][]graph.Arc // adj[u] = u's out-arcs as known to the searching node
	arena   []graph.Arc
	dist    []int64
	touched []int
	pq      graph.DistHeap
}

func newLocalSearch(n int) *localSearch {
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = minplus.Inf
	}
	return &localSearch{adj: make([][]graph.Arc, n), dist: dist}
}

// run computes shortest distances from src over src's own arcs plus the
// arcs each reply in inbox carries for its sender. The returned vector
// (Inf where unreached) is valid until the next call.
func (l *localSearch) run(src int, own []graph.Arc, inbox []cc.Message) []int64 {
	for _, u := range l.touched {
		l.dist[u] = minplus.Inf
	}
	l.touched = l.touched[:0]

	total := 0
	for _, m := range inbox {
		total += len(m.Payload) / 2
	}
	if cap(l.arena) < total {
		l.arena = make([]graph.Arc, total)
	}
	arena := l.arena[:total]
	l.adj[src] = own
	for _, m := range inbox {
		k := len(m.Payload) / 2
		arcs := arena[:k:k]
		arena = arena[k:]
		for i := range arcs {
			arcs[i] = graph.Arc{To: int(m.Payload[2*i]), W: m.Payload[2*i+1]}
		}
		l.adj[m.From] = arcs
	}

	l.dist[src] = 0
	l.touched = append(l.touched, src)
	l.pq.Reset()
	l.pq.Push(src, 0)
	for l.pq.Len() > 0 {
		cur := l.pq.Pop()
		if cur.Dist > l.dist[cur.Node] {
			continue
		}
		for _, a := range l.adj[cur.Node] {
			nd := minplus.SatAdd(cur.Dist, a.W)
			if nd < l.dist[a.To] {
				if minplus.IsInf(l.dist[a.To]) {
					l.touched = append(l.touched, a.To)
				}
				l.dist[a.To] = nd
				l.pq.Push(a.To, nd)
			}
		}
	}
	l.adj[src] = nil
	for _, m := range inbox {
		l.adj[m.From] = nil
	}
	return l.dist
}

// MeasureHopRadius returns, over the sampled sources, the maximum number of
// hops needed in gh (= G∪H) to realize the exact distance to every one of
// the source's k nearest nodes, and the number of (source, target) pairs
// checked. It is the empirical counterpart of the β ∈ O(a·log d) guarantee.
// maxHops bounds the search; -1 is returned if some pair needs more.
func MeasureHopRadius(g, gh *graph.Graph, k int, sources []int, maxHops int) (int, int) {
	worst := 0
	pairs := 0
	for _, v := range sources {
		exact := g.Dijkstra(v)
		targets := graph.KNearestFrom(exact, k)
		pairs += len(targets)
		needed := hopsNeeded(gh, v, targets, maxHops)
		if needed < 0 {
			return -1, pairs
		}
		if needed > worst {
			worst = needed
		}
	}
	return worst, pairs
}

// hopsNeeded returns the smallest h ≤ maxHops such that every target is
// reached from v within h hops at its exact distance, or -1. It runs one
// incremental Bellman–Ford sweep per hop (equivalent to HopLimited(v,h)
// checked after every h).
func hopsNeeded(gh *graph.Graph, v int, targets []graph.NodeDist, maxHops int) int {
	n := gh.N()
	dist := make([]int64, n)
	next := make([]int64, n)
	for i := range dist {
		dist[i] = minplus.Inf
	}
	dist[v] = 0
	cap := gh.Cap()
	reached := func(d []int64) bool {
		for _, t := range targets {
			dt := d[t.Node]
			if cap > 0 && t.Node != v && dt > cap {
				dt = cap
			}
			if dt != t.Dist {
				return false
			}
		}
		return true
	}
	// With a cap, any cap-using path is dominated by the direct 1-hop cap
	// arc from the source, so clamping inside reached() fully accounts for
	// the implicit arcs (same argument as graph.HopLimited).
	for h := 1; h <= maxHops; h++ {
		copy(next, dist)
		for u := 0; u < n; u++ {
			du := dist[u]
			if minplus.IsInf(du) {
				continue
			}
			for _, a := range gh.Out(u) {
				if nd := minplus.SatAdd(du, a.W); nd < next[a.To] {
					next[a.To] = nd
				}
			}
		}
		dist, next = next, dist
		if reached(dist) {
			return h
		}
	}
	return -1
}
