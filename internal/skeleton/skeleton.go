// Package skeleton implements the paper's skeleton graphs (§6, Lemma 6.1 and
// its simplified form Lemma 3.4): given that every node u knows a set Ñk(u)
// of (approximately) its k nearest nodes with distance estimates δ, it
// constructs in O(1) rounds a graph G_S on a hitting set S of
// O(n·log k / k) skeleton nodes such that an l-approximation of APSP on G_S
// translates to a 7la²-approximation of APSP on G.
//
// The construction follows §6.1: a randomized hitting set with local fix-up,
// cluster centers c(u), the two-sided aggregates
//
//	x(s,t) = min{ δ(s,u)+δ(u,t) : c(u)=s, t∈Ñk(u) }
//	y(t,s) = min{ w_tv+δ(s,v)  : c(v)=s, {t,v}∈E or t=v }
//
// and the edge weights of G_S as the min-plus product X ⋆ Y, whose round
// cost follows the CDKL21 sparse matrix multiplication theorem (§6.2).
package skeleton

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
)

// Input bundles the arguments of Lemma 6.1.
type Input struct {
	// G is the undirected input graph (it may carry a cap, in which case the
	// implicit universal edges participate in the y-aggregation).
	G *graph.Graph
	// K is the list size.
	K int
	// A is the approximation factor of the δ values in Lists (1 for exact
	// k-nearest lists, the Lemma 3.4 case).
	A float64
	// Lists[u] is Ñk(u) with δ(u,·) values, sorted by (dist, ID), including
	// u itself. The conditions (C1)/(C2) of Lemma 6.1 must hold.
	Lists [][]graph.NodeDist
	// Rng drives the hitting-set sampling.
	Rng *rand.Rand
	// Deterministic selects the greedy (set-cover) hitting set instead of
	// the randomized sampling. The size guarantee weakens from O(n·log k/k)
	// w.h.p. to O(n·log n/k), but the construction — and with it the whole
	// APSP pipeline, whose other stages are already deterministic — becomes
	// deterministic.
	Deterministic bool
}

// Skeleton is the constructed skeleton graph with its translation data.
type Skeleton struct {
	// Nodes lists the skeleton node IDs (subset of V), ascending.
	Nodes []int
	// Index maps original node ID → skeleton index (-1 if not in S).
	Index []int
	// GS is the skeleton graph on len(Nodes) nodes (skeleton index space).
	GS *graph.Graph
	// Center[u] is c(u), the skeleton node assigned to u (original ID).
	Center []int
	// DeltaC[u] is δ(u, c(u)).
	DeltaC []int64

	in Input
}

// Build runs the §6.1 construction. The returned skeleton satisfies
// |S| = O(n·log k/k) w.h.p.; correctness (the 7la² translation guarantee)
// holds for every random outcome given valid inputs.
func Build(clq *cc.Clique, in Input) (*Skeleton, error) {
	n := in.G.N()
	if len(in.Lists) != n {
		return nil, fmt.Errorf("skeleton: %d lists for %d nodes", len(in.Lists), n)
	}
	if in.K < 1 {
		return nil, fmt.Errorf("skeleton: invalid k %d", in.K)
	}
	if in.A < 1 {
		return nil, fmt.Errorf("skeleton: invalid approximation factor %v", in.A)
	}
	for u, l := range in.Lists {
		if len(l) == 0 {
			return nil, fmt.Errorf("skeleton: empty list at node %d", u)
		}
	}

	var s []int
	if in.Deterministic {
		s = greedyHittingSet(clq, in)
	} else {
		s = hittingSet(clq, in)
	}

	// Make S globally known: each member announces itself (|S| words total).
	clq.Broadcast(int64(len(s)), "skeleton membership")
	inS := make([]bool, n)
	for _, v := range s {
		inS[v] = true
	}

	// Cluster centers: c(u) is the δ-closest member of S in Ñk(u); lists are
	// sorted by (δ, ID), so the first member found is the center.
	center := make([]int, n)
	deltaC := make([]int64, n)
	for u := 0; u < n; u++ {
		center[u] = -1
		for _, nd := range in.Lists[u] {
			if inS[nd.Node] {
				center[u] = nd.Node
				deltaC[u] = nd.Dist
				break
			}
		}
		if center[u] == -1 {
			return nil, fmt.Errorf("skeleton: hitting set misses node %d", u)
		}
	}

	// Broadcast (c(v), δ(v,c(v))) for every v: 2n words. Needed for the
	// y-aggregation under caps and for Translate.
	clq.Broadcast(int64(2*n), "skeleton center table")

	x := buildX(clq, in, center, deltaC)
	y := buildY(clq, in, center, deltaC)

	// G_S edge weights: the (s_a, s_b) entry of X ⋆ Y. The product is charged
	// per the CDKL21 sparse matmul bound (Theorem 6.1): ρX ≤ k, ρY ≤ |S|,
	// ρXY ≤ |S|²/n.
	rhoXY := float64(len(s)) * float64(len(s)) / float64(n)
	clq.ChargeRounds(minplus.CDKL21Rounds(x.Density(), y.Density(), rhoXY, n))
	prod := minplus.MulSparse(x, y)

	index := make([]int, n)
	for i := range index {
		index[i] = -1
	}
	for i, v := range s {
		index[v] = i
	}

	return &Skeleton{
		Nodes:  s,
		Index:  index,
		GS:     skeletonGraph(s, index, prod),
		Center: center,
		DeltaC: deltaC,
		in:     in,
	}, nil
}

// skeletonGraph returns G_S in skeleton index space: edge {a,b} weighs the
// lighter of the product entries (s_a,s_b) and (s_b,s_a). Both directions
// are added as parallel arcs and Normalize keeps the lighter one.
func skeletonGraph(s, index []int, prod *minplus.RowSparse) *graph.Graph {
	gs := graph.New(len(s))
	for _, sa := range s {
		for _, e := range prod.Row(sa) {
			if sb := e.Col; sb != sa && index[sb] >= 0 {
				gs.AddEdge(index[sa], index[sb], e.W)
			}
		}
	}
	return gs.Normalize()
}

// hittingSet samples S with per-node probability ln(k)/k, locally fixes
// uncovered nodes by joining, repeats O(log n) trials in parallel (the
// per-trial bits fit one word) and keeps the smallest S — the procedure of
// Lemma 6.2 (after [DFKL21]).
func hittingSet(clq *cc.Clique, in Input) []int {
	n := in.G.N()
	p := 1.0
	if in.K >= 2 {
		p = math.Log(float64(in.K)) / float64(in.K)
		if p > 1 {
			p = 1
		}
	}
	trials := 1
	for m := 1; m < n; m *= 2 {
		trials++
	}
	// Announce sampled membership: every node tells every node its trial
	// bitmask (one word); then fix-ups announce the same way; then trial
	// sizes are aggregated and the verdict broadcast (2 more rounds).
	clq.AllToAll(1, cc.RouteOpts{RecvBudget: int64(n), Note: "hitting-set sample announce"})
	clq.AllToAll(1, cc.RouteOpts{RecvBudget: int64(n), Note: "hitting-set fixup announce"})
	clq.ChargeRounds(2)

	best := []int(nil)
	for t := 0; t < trials; t++ {
		sampled := make([]bool, n)
		for v := 0; v < n; v++ {
			if in.Rng.Float64() < p {
				sampled[v] = true
			}
		}
		// Fix-up: nodes whose list misses S join it.
		var set []int
		member := make([]bool, n)
		for v := 0; v < n; v++ {
			if sampled[v] {
				member[v] = true
			}
		}
		for v := 0; v < n; v++ {
			hit := false
			for _, nd := range in.Lists[v] {
				if member[nd.Node] {
					hit = true
					break
				}
			}
			if !hit {
				member[v] = true
			}
		}
		for v := 0; v < n; v++ {
			if member[v] {
				set = append(set, v)
			}
		}
		if best == nil || len(set) < len(best) {
			best = set
		}
	}
	sort.Ints(best)
	return best
}

// greedyHittingSet is the deterministic alternative: classic greedy set
// cover over the lists (repeatedly add the node hitting the most still-unhit
// lists, smallest ID on ties). Size ≤ H_n·OPT ∈ O(n·log n/k). Every node
// runs the same greedy sequence after a one-time broadcast of all list
// memberships (n·k words), which costs O(k) rounds in the standard model —
// the price of determinism in this implementation (an O(1)-round
// deterministic selection is an open engineering question we do not take
// on; the charge is honest).
func greedyHittingSet(clq *cc.Clique, in Input) []int {
	n := in.G.N()
	var totalWords int64
	for _, l := range in.Lists {
		totalWords += int64(len(l))
	}
	clq.Broadcast(totalWords, "greedy hitting-set membership broadcast")

	// covers[x] = lists that node x hits.
	covers := make([][]int, n)
	for u, l := range in.Lists {
		for _, nd := range l {
			covers[nd.Node] = append(covers[nd.Node], u)
		}
	}
	unhit := make([]bool, n)
	for i := range unhit {
		unhit[i] = true
	}
	remaining := n
	gain := make([]int, n)
	for x := range gain {
		gain[x] = len(covers[x])
	}
	var set []int
	for remaining > 0 {
		best := -1
		for x := 0; x < n; x++ {
			if gain[x] > 0 && (best == -1 || gain[x] > gain[best]) {
				best = x
			}
		}
		if best == -1 {
			// Only possible if some list is empty; Build validates against
			// that, so every remaining list still has a hitter.
			break
		}
		set = append(set, best)
		for _, u := range covers[best] {
			if !unhit[u] {
				continue
			}
			unhit[u] = false
			remaining--
			for _, nd := range in.Lists[u] {
				gain[nd.Node]--
			}
		}
	}
	sort.Ints(set)
	return set
}

// minTable keeps per-key minima in a dense vector, reset through the list
// of keys touched since the last reset.
type minTable struct {
	val     []int64
	has     []bool
	touched []int // keys in first-offer order
}

func newMinTable(n int) *minTable {
	return &minTable{val: make([]int64, n), has: make([]bool, n)}
}

func (m *minTable) offer(key int, v int64) {
	if !m.has[key] {
		m.has[key] = true
		m.val[key] = v
		m.touched = append(m.touched, key)
	} else if v < m.val[key] {
		m.val[key] = v
	}
}

func (m *minTable) reset() {
	for _, key := range m.touched {
		m.has[key] = false
	}
	m.touched = m.touched[:0]
}

// buildX aggregates x(s,t) = min over u with c(u)=s, t∈Ñk(u) of
// δ(s,u)+δ(u,t): each u routes (c(u), δ(u,c(u))+δ(u,t)) to every t in its
// list; each t reduces per-center minima and forwards them to the centers.
func buildX(clq *cc.Clique, in Input, center []int, deltaC []int64) *minplus.RowSparse {
	n := in.G.N()
	total := 0
	for _, l := range in.Lists {
		total += len(l)
	}
	toT := make([]cc.Message, 0, total)
	words := make([]cc.Word, 2*total)
	for u := 0; u < n; u++ {
		for _, nd := range in.Lists[u] {
			p := words[:2:2]
			words = words[2:]
			p[0], p[1] = int64(center[u]), minplus.SatAdd(deltaC[u], nd.Dist)
			toT = append(toT, cc.Message{From: u, To: nd.Node, Payload: p})
		}
	}
	inboxT := clq.Route(toT, cc.RouteOpts{
		SendBudget: int64(2 * in.K),
		RecvBudget: int64(2 * n),
		Note:       "skeleton x to-t",
	})
	// t holds min per center; forward x(s,t) to s. Each t forwards at most
	// one word per message it received.
	toS := make([]cc.Message, 0, total)
	vals := make([]cc.Word, total)
	mins := newMinTable(n)
	for t := 0; t < n; t++ {
		for _, m := range inboxT[t] {
			mins.offer(int(m.Payload[0]), m.Payload[1])
		}
		for _, s := range mins.touched {
			p := vals[:1:1]
			vals = vals[1:]
			p[0] = mins.val[s]
			toS = append(toS, cc.Message{From: t, To: s, Payload: p})
		}
		mins.reset()
	}
	inboxS := clq.Route(toS, cc.RouteOpts{
		SendBudget: int64(n),
		RecvBudget: int64(n),
		Note:       "skeleton x to-s",
	})
	x := minplus.NewRowSparse(n)
	var ents []minplus.Entry
	for s := 0; s < n; s++ {
		if len(inboxS[s]) == 0 {
			continue
		}
		ents = ents[:0]
		for _, m := range inboxS[s] {
			ents = append(ents, minplus.Entry{Col: m.From, W: m.Payload[0]})
		}
		x.SetRow(s, ents)
	}
	return x
}

// buildY aggregates y(t,s) = min over v with c(v)=s and ({t,v}∈E or t=v) of
// w_tv + δ(v,s): each v sends (c(v), w_tv+δ(v,c(v))) to each neighbour t
// once, over the lightest of its parallel edges to t, so a multigraph loads
// no node past the route's 2n budget; the t=v self term adds δ(t,c(t)); a
// cap contributes cap + min{δ(v,c(v)) : c(v)=s} uniformly (the implicit
// edges are everywhere), computed locally from the broadcast center table.
func buildY(clq *cc.Clique, in Input, center []int, deltaC []int64) *minplus.RowSparse {
	n := in.G.N()
	arcs := 0
	for v := 0; v < n; v++ {
		arcs += len(in.G.Out(v))
	}
	toT := make([]cc.Message, 0, arcs)
	words := make([]cc.Word, 2*arcs)
	mins := newMinTable(n)
	for v := 0; v < n; v++ {
		for _, a := range in.G.Out(v) {
			mins.offer(a.To, a.W)
		}
		for _, t := range mins.touched {
			p := words[:2:2]
			words = words[2:]
			p[0], p[1] = int64(center[v]), minplus.SatAdd(mins.val[t], deltaC[v])
			toT = append(toT, cc.Message{From: v, To: t, Payload: p})
		}
		mins.reset()
	}
	inboxT := clq.Route(toT, cc.RouteOpts{
		SendBudget: int64(2 * n),
		RecvBudget: int64(2 * n),
		Note:       "skeleton y edges",
	})

	// Cap contribution: per-center minima of δ(v,c(v)), known to everyone
	// from the center-table broadcast.
	var capMin *minTable
	if in.G.Cap() > 0 {
		capMin = newMinTable(n)
		for v := 0; v < n; v++ {
			capMin.offer(center[v], deltaC[v])
		}
	}

	y := minplus.NewRowSparse(n)
	var ents []minplus.Entry
	for t := 0; t < n; t++ {
		for _, m := range inboxT[t] {
			mins.offer(int(m.Payload[0]), m.Payload[1])
		}
		// t = v self term.
		mins.offer(center[t], deltaC[t])
		if capMin != nil {
			for _, sb := range capMin.touched {
				mins.offer(sb, minplus.SatAdd(in.G.Cap(), capMin.val[sb]))
			}
		}
		ents = ents[:0]
		for _, sb := range mins.touched {
			ents = append(ents, minplus.Entry{Col: sb, W: mins.val[sb]})
		}
		mins.reset()
		y.SetRow(t, ents)
	}
	return y
}

// Translate implements the η computation of §6.1 Step 4: given an
// l-approximation deltaGS of APSP on G_S (skeleton index space), it returns
// the 7la²-approximation η of APSP on G. The routing (center rows to cluster
// members, list values to reverse neighbours) is charged per Lemma 2.2.
func (sk *Skeleton) Translate(clq *cc.Clique, deltaGS *minplus.Dense) (*minplus.Dense, error) {
	n := sk.in.G.N()
	if deltaGS.N() != len(sk.Nodes) {
		return nil, fmt.Errorf("skeleton: deltaGS has %d nodes, want %d", deltaGS.N(), len(sk.Nodes))
	}

	// Each skeleton node s sends its deltaGS row (|S| words) to every node
	// in its cluster (duplicable; each node receives |S| ≤ n words).
	// Only the message sizes matter to the routing charge, so every message
	// shares one zero payload.
	zero := make([]cc.Word, len(sk.Nodes))
	var rowMsgs []cc.Message
	for u := 0; u < n; u++ {
		if sk.Center[u] == u {
			continue // the center holds its own row already
		}
		rowMsgs = append(rowMsgs, cc.Message{From: sk.Center[u], To: u, Payload: zero})
	}
	clq.Route(rowMsgs, cc.RouteOpts{
		Duplicable: true,
		RecvBudget: int64(n),
		Note:       "skeleton deltaGS rows",
	})

	// Reverse-list exchange: v tells each u ∈ Ñk(v) the value δ(v,u), so
	// both sides of the "u ∈ Ñk(v) or v ∈ Ñk(u)" rule are known at u. The
	// one-word payloads share one backing slice.
	total := 0
	for _, l := range sk.in.Lists {
		total += len(l)
	}
	words := make([]cc.Word, 0, total)
	revMsgs := make([]cc.Message, 0, total)
	for v := 0; v < n; v++ {
		for _, nd := range sk.in.Lists[v] {
			if nd.Node == v {
				continue
			}
			words = append(words, nd.Dist)
			revMsgs = append(revMsgs, cc.Message{
				From:    v,
				To:      nd.Node,
				Payload: words[len(words)-1 : len(words) : len(words)],
			})
		}
	}
	revInbox := clq.Route(revMsgs, cc.RouteOpts{
		SendBudget: int64(2 * sk.in.K),
		RecvBudget: int64(2 * n),
		Note:       "skeleton reverse lists",
	})

	eta := minplus.NewDense(n)
	for u := 0; u < n; u++ {
		row := eta.Row(u)
		cu := sk.Index[sk.Center[u]]
		for v := 0; v < n; v++ {
			if v == u {
				row[v] = 0
				continue
			}
			cv := sk.Index[sk.Center[v]]
			val := minplus.SatAdd(sk.DeltaC[u],
				minplus.SatAdd(deltaGS.At(cu, cv), sk.DeltaC[v]))
			row[v] = val
		}
		// Direct estimates from u's own list…
		for _, nd := range sk.in.Lists[u] {
			if nd.Dist < row[nd.Node] {
				row[nd.Node] = nd.Dist
			}
		}
		// …and from nodes whose list contains u.
		for _, m := range revInbox[u] {
			if m.Payload[0] < row[m.From] {
				row[m.From] = m.Payload[0]
			}
		}
	}
	eta.Symmetrize()
	return eta, nil
}

// TranslationFactor returns the proven approximation factor 7·l·a² of
// Lemma 6.1 for a skeleton built from a-approximate lists and an
// l-approximation on G_S.
func TranslationFactor(l, a float64) float64 { return 7 * l * a * a }

// ListsFromEstimate derives Ñk(u) lists from a symmetric distance estimate:
// the k smallest entries of each row by (value, ID). When the estimate is an
// a-approximation of APSP that is exact on k-nearest sets in the sense of
// Theorem 8.1's correctness argument, the lists satisfy (C1) and (C2).
func ListsFromEstimate(est *minplus.Dense, k int) [][]graph.NodeDist {
	n := est.N()
	lists := make([][]graph.NodeDist, n)
	for u := 0; u < n; u++ {
		ents := est.KSmallestInRow(u, k)
		lists[u] = make([]graph.NodeDist, 0, len(ents))
		for _, e := range ents {
			lists[u] = append(lists[u], graph.NodeDist{Node: e.Col, Dist: e.W})
		}
	}
	return lists
}

// VerifyConditions checks the Lemma 6.1 preconditions (C1) and (C2) of the
// lists against exact distances, returning a descriptive error on the first
// violation. Used by tests and the experiment harness.
func VerifyConditions(lists [][]graph.NodeDist, exact *minplus.Dense, a float64) error {
	n := exact.N()
	for u := 0; u < n; u++ {
		inList := make(map[int]int64, len(lists[u]))
		var maxDelta int64
		for _, nd := range lists[u] {
			inList[nd.Node] = nd.Dist
			d := exact.At(u, nd.Node)
			if nd.Dist < d {
				return fmt.Errorf("C1: δ(%d,%d)=%d below distance %d", u, nd.Node, nd.Dist, d)
			}
			fd := float64(d) * a
			if float64(nd.Dist) > fd+1e-9 {
				return fmt.Errorf("C1: δ(%d,%d)=%d exceeds a·d=%v", u, nd.Node, nd.Dist, fd)
			}
			if nd.Dist > maxDelta {
				maxDelta = nd.Dist
			}
		}
		for t := 0; t < n; t++ {
			if _, ok := inList[t]; ok {
				continue
			}
			bound := float64(exact.At(u, t)) * a
			if float64(maxDelta) > bound+1e-9 {
				return fmt.Errorf("C2: node %d: δ to list member %d exceeds a·d(%d,%d)=%v",
					u, maxDelta, u, t, bound)
			}
		}
	}
	return nil
}
