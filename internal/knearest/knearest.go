// Package knearest implements the paper's fast k-nearest-nodes computation
// (§5, Lemmas 5.1 and 5.2): given a weighted directed graph and parameters
// k ∈ O(n^{1/h}), each application computes, for every node u, the k nodes
// nearest to u under h-hop distances, in O(1) rounds; i applications extend
// this to h^i-hop distances.
//
// The algorithm is the filtered-matrix scheme of §5.2: each node keeps the k
// smallest entries of its row (the matrix Ā), the global concatenated edge
// list M is cut into p = ⌊n^{1/h}·h/4⌋ bins, each of the ≤ n
// "h-combinations" of bins (a distinguished first bin plus h−1 further bins)
// is assigned to a node that collects its bins' edges and answers h-hop
// queries for the sources whose list intersects its first bin. The paper's
// fallbacks for degenerate parameters (p < h, or bins no larger than a
// single list) broadcast the lists outright.
//
// Correctness leans on Lemma 5.5 (filtering preserves the optimal paths to
// k-nearest targets: Ā^h = A^h on those entries), which the tests verify
// empirically against unfiltered references.
package knearest

import (
	"fmt"
	"math"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
	"github.com/congestedclique/cliqueapsp/internal/sched"
)

// Result holds the outcome of a k-nearest computation: Lists[u] are u's k
// nearest nodes (including u itself at distance 0) ordered by
// (distance, ID), under h^i-hop distances.
type Result struct {
	Lists [][]graph.NodeDist
	K     int
	// Hops is the hop depth h^i the lists are exact for.
	Hops int
}

// Compute runs Lemma 5.2: iters applications of the Lemma 5.1 algorithm on
// the directed (possibly capped) graph g. It requires k ≥ 1, h ≥ 1,
// iters ≥ 1; k is clamped to n. The combo nodes' local work fans out over
// par, which also carries the run's context; nil means the shared pool at
// full width.
func Compute(par *sched.Group, clq *cc.Clique, g *graph.Graph, k, h, iters int) (*Result, error) {
	n := g.N()
	if k < 1 {
		return nil, fmt.Errorf("knearest: invalid k %d", k)
	}
	if h < 1 || iters < 1 {
		return nil, fmt.Errorf("knearest: invalid h=%d iters=%d", h, iters)
	}
	if k > n {
		k = n
	}
	if par == nil {
		par = sched.Background()
	}
	clq.Phase("knearest")

	rows := initialRows(g, k)
	hops := 1
	for it := 0; it < iters; it++ {
		var err error
		rows, err = iterate(par, clq, n, k, h, rows)
		if err != nil {
			return nil, err
		}
		if hops < n { // avoid overflow; hop depths beyond n are all equal
			hops *= h
		}
	}
	// Rows leave iterate sorted by (W, Col), which is the (Dist, Node)
	// order the lists promise.
	lists := make([][]graph.NodeDist, n)
	for u, row := range rows {
		lists[u] = make([]graph.NodeDist, len(row))
		for i, e := range row {
			lists[u][i] = graph.NodeDist{Node: e.Col, Dist: e.W}
		}
	}
	return &Result{Lists: lists, K: k, Hops: hops}, nil
}

// initialRows builds the filtered adjacency rows M(u): the k smallest
// entries of u's row in the weighted adjacency matrix (diagonal 0 included,
// cap arcs materialized as needed). Rows are stored sorted by (W, Col).
func initialRows(g *graph.Graph, k int) [][]minplus.Entry {
	n := g.N()
	rows := make([][]minplus.Entry, n)
	for u := 0; u < n; u++ {
		row := make([]minplus.Entry, 0, k)
		row = append(row, minplus.Entry{Col: u, W: 0})
		for _, a := range g.LightestOut(u, k-1) {
			row = append(row, minplus.Entry{Col: a.To, W: a.W})
		}
		rows[u] = row
	}
	return rows
}

// rowWords flattens each row into (col, w) word pairs, the wire form of a
// list segment. Rows hold at most k entries.
func rowWords(rows [][]minplus.Entry) [][]cc.Word {
	total := 0
	for _, row := range rows {
		total += 2 * len(row)
	}
	words := make([]cc.Word, total)
	out := make([][]cc.Word, len(rows))
	off := 0
	for u, row := range rows {
		start := off
		for _, e := range row {
			words[off], words[off+1] = int64(e.Col), e.W
			off += 2
		}
		out[u] = words[start:off:off]
	}
	return out
}

// iterate performs one application of the Lemma 5.1 algorithm: from rows
// representing a filtered matrix Ā, it returns the rows of the k smallest
// entries per row of Ā^h.
func iterate(par *sched.Group, clq *cc.Clique, n, k, h int, rows [][]minplus.Entry) ([][]minplus.Entry, error) {
	p := int(math.Floor(math.Pow(float64(n), 1.0/float64(h)) * float64(h) / 4.0))
	binSize := 0
	if p >= 1 {
		binSize = (n*k + p - 1) / p
	}
	if p < h || binSize <= k {
		return fallbackBroadcast(clq, n, k, h, rows), nil
	}

	combos := enumerateCombos(p, h)
	for len(combos) > n {
		// The paper proves h·C(p,h) ≤ n for p = ⌊n^{1/h}·h/4⌋; floor effects
		// at tiny n can still overshoot, in which case shrinking p preserves
		// correctness (bins merely get larger).
		p--
		if p < h {
			return fallbackBroadcast(clq, n, k, h, rows), nil
		}
		binSize = (n*k + p - 1) / p
		if binSize <= k {
			return fallbackBroadcast(clq, n, k, h, rows), nil
		}
		combos = enumerateCombos(p, h)
	}

	// The global list M: position j holds entry j%k of node j/k's row. Rows
	// shorter than k are padded with sentinels that are never sent, so a
	// node's real entries are its first len(row) positions. Bin b covers
	// positions [b·binSize, (b+1)·binSize).
	words := rowWords(rows)

	// Step 3: each combo node collects the edges of its bins. A node's
	// segment within a bin is one message; senders duplicate across combos,
	// which is the Lemma 2.2 regime. Duplicates share their payload.
	// A bin spans at most binSize/k + 2 rows.
	collect := make([]cc.Message, 0, len(combos)*h*(binSize/k+2))
	for comboID, cb := range combos {
		for _, b := range cb.bins() {
			lo, hi := b*binSize, min((b+1)*binSize, n*k)
			for pos := lo; pos < hi; {
				owner := pos / k
				end := min((owner+1)*k, hi)
				from, to := pos-owner*k, min(end-owner*k, len(rows[owner]))
				if from < to {
					payload := words[owner][2*from : 2*to : 2*to]
					collect = append(collect, cc.Message{From: owner, To: comboID, Payload: payload})
				}
				pos = end
			}
		}
	}
	binBudget := int64(2*h*binSize + n)
	collected := clq.Route(collect, cc.RouteOpts{
		Duplicable: true,
		RecvBudget: binBudget,
		Note:       "knearest bin collection",
	})

	// Step 4a: sources query the combo nodes whose first bin intersects
	// their list segment (positions are global knowledge, so the query is a
	// single word).
	firstBinOf := make([][]int, p) // bin → combo IDs with that first bin
	for id, cb := range combos {
		firstBinOf[cb.first] = append(firstBinOf[cb.first], id)
	}
	// A list segment meets at most two bins, since binSize > k.
	queries := make([]cc.Message, 0, 2*n*(len(combos)/p))
	for u := 0; u < n; u++ {
		for _, b := range binsOfRange(u*k, (u+1)*k, binSize, p) {
			for _, comboID := range firstBinOf[b] {
				queries = append(queries, cc.Message{From: u, To: comboID})
			}
		}
	}
	queryBudget := int64(2*binSize + n)
	queryInbox := clq.Route(queries, cc.RouteOpts{
		SendBudget: int64(2 * (len(combos)/p + 1)),
		RecvBudget: queryBudget,
		Note:       "knearest queries",
	})

	// Step 4b: each combo node answers every querying source with the k
	// nearest nodes it can certify from its local edges within h hops.
	// Combo nodes work independently within the round, so they fan out
	// over par; answers are concatenated in combo order, so Route sees the
	// same message sequence as a serial loop would produce.
	perCombo := make([][]cc.Message, len(combos))
	err := par.ForN(len(combos), chunkFor(par, len(combos)), func(lo, hi int) {
		var lg localGraph
		for comboID := lo; comboID < hi; comboID++ {
			lg.load(n, collected[comboID])
			inbox := queryInbox[comboID]
			msgs := make([]cc.Message, len(inbox))
			payloads := make([]cc.Word, 0, 2*k*len(inbox))
			for i, q := range inbox {
				start := len(payloads)
				for _, e := range lg.hopKNearest(q.From, k, h) {
					payloads = append(payloads, int64(e.Col), e.W)
				}
				msgs[i] = cc.Message{From: comboID, To: q.From, Payload: payloads[start:len(payloads):len(payloads)]}
			}
			perCombo[comboID] = msgs
		}
	})
	if err != nil {
		return nil, err
	}
	responses := make([]cc.Message, 0, len(queries))
	for _, msgs := range perCombo {
		responses = append(responses, msgs...)
	}
	respBudget := int64(2*k*(2*(len(combos)/p+1)) + n)
	respInbox := clq.Route(responses, cc.RouteOpts{
		Duplicable: true,
		RecvBudget: respBudget,
		Note:       "knearest responses",
	})

	// Union-min over responses, then keep the k smallest (Lemma 5.4). Each
	// node merges into a dense best-distance vector, reset through the list
	// of nodes it touched.
	next := make([][]minplus.Entry, n)
	backing := make([]minplus.Entry, n*k)
	err = par.ForN(n, chunkFor(par, n), func(lo, hi int) {
		best := make([]int64, n)
		for i := range best {
			best[i] = minplus.Inf
		}
		var cand []minplus.Entry
		for u := lo; u < hi; u++ {
			best[u] = 0
			cand = append(cand[:0], minplus.Entry{Col: u})
			for _, m := range respInbox[u] {
				for i := 0; i+1 < len(m.Payload); i += 2 {
					node, d := int(m.Payload[i]), m.Payload[i+1]
					if d < best[node] {
						if minplus.IsInf(best[node]) {
							cand = append(cand, minplus.Entry{Col: node})
						}
						best[node] = d
					}
				}
			}
			for i := range cand {
				cand[i].W = best[cand[i].Col]
				best[cand[i].Col] = minplus.Inf
			}
			row := backing[u*k : u*k : (u+1)*k]
			next[u] = append(row, minplus.SmallestK(cand, k)...)
		}
	})
	if err != nil {
		return nil, err
	}
	return next, nil
}

// chunkFor splits n independent nodes into about four chunks per worker of
// par: enough to balance uneven work, few enough that per-chunk scratch is
// negligible.
func chunkFor(par *sched.Group, n int) int {
	parts := 4 * par.Max()
	return max(1, (n+parts-1)/parts)
}

// fallbackBroadcast handles the degenerate parameter regimes of §5.2: all
// lists are broadcast (n·k entries total) and every node finishes locally.
func fallbackBroadcast(clq *cc.Clique, n, k, h int, rows [][]minplus.Entry) [][]minplus.Entry {
	var total int64
	for _, row := range rows {
		total += int64(2 * len(row))
	}
	clq.Broadcast(total, "knearest fallback list broadcast")
	// Every node now knows all rows; compute h-hop k-nearest locally.
	all := make([]cc.Message, n)
	for u, w := range rowWords(rows) {
		all[u] = cc.Message{From: u, Payload: w}
	}
	var lg localGraph
	lg.load(n, all)
	next := make([][]minplus.Entry, n)
	for u := 0; u < n; u++ {
		next[u] = append([]minplus.Entry(nil), lg.hopKNearest(u, k, h)...)
	}
	return next
}

// combo is one h-combination: a distinguished first bin and h−1 further
// distinct bins (paper §5.2, Step 2).
type combo struct {
	first int
	rest  []int
}

func (c combo) bins() []int {
	out := make([]int, 0, 1+len(c.rest))
	out = append(out, c.first)
	out = append(out, c.rest...)
	return out
}

// enumerateCombos lists all h·C(p,h) h-combinations deterministically:
// first bin ascending, then the (h−1)-subsets of the remaining bins in
// lexicographic order.
func enumerateCombos(p, h int) []combo {
	var out []combo
	subset := make([]int, 0, h-1)
	var rec func(start int, first int)
	rec = func(start, first int) {
		if len(subset) == h-1 {
			out = append(out, combo{first: first, rest: append([]int(nil), subset...)})
			return
		}
		for b := start; b < p; b++ {
			if b == first {
				continue
			}
			subset = append(subset, b)
			rec(b+1, first)
			subset = subset[:len(subset)-1]
		}
	}
	for first := 0; first < p; first++ {
		rec(0, first)
	}
	return out
}

// binsOfRange returns the bins overlapping global positions [lo, hi).
func binsOfRange(lo, hi, binSize, p int) []int {
	first := lo / binSize
	last := (hi - 1) / binSize
	if last >= p {
		last = p - 1
	}
	out := make([]int, 0, last-first+1)
	for b := first; b <= last; b++ {
		out = append(out, b)
	}
	return out
}

// localGraph is the edge multiset a node received, in CSR form over the
// nodes that occur in it, together with the buffers of its h-hop queries.
// Loading a new multiset reuses every buffer, so one localGraph serves a
// run of combo nodes; a localGraph is not safe for concurrent use.
type localGraph struct {
	index []int32 // global node → local index, -1 when absent
	nodes []int   // local index → global node: the touched list of index
	start []int   // node i's arcs are arcs[start[i]:start[i+1]]
	arcs  []localArc

	dist    []int64 // h-hop distances by local index, Inf between queries
	stamp   []int   // step in which a node last joined the frontier
	steps   int     // steps run so far, so stamps never need resetting
	reached []int32
	cand    []minplus.Entry
	// frontier holds (node, distance at the start of the step) pairs.
	frontier, nextFrontier []localArc
}

type localArc struct {
	to int32
	w  int64
}

// load replaces the edge multiset with the arcs of msgs: message m carries
// (to, w) word pairs for arcs leaving m.From, over global IDs in [0, n).
func (lg *localGraph) load(n int, msgs []cc.Message) {
	if len(lg.index) < n {
		lg.index = make([]int32, n)
		for i := range lg.index {
			lg.index[i] = -1
		}
	}
	for _, v := range lg.nodes {
		lg.index[v] = -1
	}
	lg.nodes, lg.start = lg.nodes[:0], lg.start[:0]
	// Pass 1 indexes the nodes and counts out-degrees; pass 2 places each
	// arc below its node's running end offset.
	for _, m := range msgs {
		from := lg.touch(m.From)
		lg.start[from] += len(m.Payload) / 2
		for i := 0; i+1 < len(m.Payload); i += 2 {
			lg.touch(int(m.Payload[i]))
		}
	}
	lg.start = append(lg.start, 0)
	end := 0
	for i := range lg.start {
		end += lg.start[i]
		lg.start[i] = end
	}
	if cap(lg.arcs) < end {
		lg.arcs = make([]localArc, end)
	}
	lg.arcs = lg.arcs[:end]
	for _, m := range msgs {
		from := lg.index[m.From]
		for i := 0; i+1 < len(m.Payload); i += 2 {
			lg.start[from]--
			lg.arcs[lg.start[from]] = localArc{to: lg.index[m.Payload[i]], w: m.Payload[i+1]}
		}
	}
	for len(lg.dist) < len(lg.nodes) {
		lg.dist = append(lg.dist, minplus.Inf)
		lg.stamp = append(lg.stamp, 0)
	}
}

func (lg *localGraph) touch(global int) int32 {
	if li := lg.index[global]; li >= 0 {
		return li
	}
	li := int32(len(lg.nodes))
	lg.index[global] = li
	lg.nodes = append(lg.nodes, global)
	lg.start = append(lg.start, 0)
	return li
}

// hopKNearest runs an h-hop Bellman–Ford from the global source node over
// the local edges and returns the k nearest (node, dist) pairs it certifies,
// as entries ordered by (dist, node). The slice is reused by the next call.
//
// Each step relaxes only the nodes whose distance dropped in the previous
// step (the frontier), from their distances at the start of the step. The
// other nodes' arcs were relaxed with the same distance one step earlier,
// so the result equals the full h-hop relaxation.
func (lg *localGraph) hopKNearest(src, k, h int) []minplus.Entry {
	li := lg.index[src]
	if li < 0 {
		lg.cand = append(lg.cand[:0], minplus.Entry{Col: src, W: 0})
		return lg.cand
	}
	dist := lg.dist
	dist[li] = 0
	lg.reached = append(lg.reached[:0], li)
	cur, nxt := append(lg.frontier[:0], localArc{to: li}), lg.nextFrontier
	for step := 0; step < h && len(cur) > 0; step++ {
		lg.steps++
		nxt = nxt[:0]
		for _, f := range cur {
			for _, a := range lg.arcs[lg.start[f.to]:lg.start[f.to+1]] {
				nd := minplus.SatAdd(f.w, a.w)
				if nd >= dist[a.to] {
					continue
				}
				if minplus.IsInf(dist[a.to]) {
					lg.reached = append(lg.reached, a.to)
				}
				dist[a.to] = nd
				if lg.stamp[a.to] != lg.steps {
					lg.stamp[a.to] = lg.steps
					nxt = append(nxt, localArc{to: a.to})
				}
			}
		}
		for i := range nxt {
			nxt[i].w = dist[nxt[i].to]
		}
		cur, nxt = nxt, cur
	}
	lg.frontier, lg.nextFrontier = cur, nxt
	cand := lg.cand[:0]
	for _, v := range lg.reached {
		cand = append(cand, minplus.Entry{Col: lg.nodes[v], W: dist[v]})
		dist[v] = minplus.Inf
	}
	lg.cand = cand
	return minplus.SmallestK(cand, k)
}

// Reference computes the k-nearest lists under hops-hop distances by direct
// per-source Bellman–Ford on the unfiltered graph — the oracle for tests
// and, via Lemma 5.5, the specification of Compute.
func Reference(g *graph.Graph, k, hops int) [][]graph.NodeDist {
	return g.KNearestHops(k, hops)
}
