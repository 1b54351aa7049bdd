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
// A combo node's h-hop search reads the row segments it received in place.
// Each segment ascends by weight, so once the search has reached k nodes it
// stops scanning a segment at the first arc that lands strictly beyond τ,
// the k-th smallest tentative distance: no such arc can reach the k
// nearest, and the answers and their lengths are those of the full search.
//
// Correctness leans on Lemma 5.5 (filtering preserves the optimal paths to
// k-nearest targets: Ā^h = A^h on those entries), which the tests verify
// empirically against unfiltered references.
//
// The buffers each iteration needs live in a Workspace that lasts one run:
// a pipeline run carries one through all of its Compute calls, so a build
// allocates them about once rather than once per iteration. A run's Compute
// calls follow one another, so no two goroutines use a Workspace at once
// except through the searchers that Compute's own fan-out hands out.
package knearest

import (
	"fmt"
	"math"
	"slices"
	"sync"

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

// Compute runs Lemma 5.2 on a fresh Workspace; see Workspace.Compute.
func Compute(par *sched.Group, clq *cc.Clique, g *graph.Graph, k, h, iters int) (*Result, error) {
	return new(Workspace).Compute(par, clq, g, k, h, iters)
}

// Workspace holds the buffers that Lemma 5.1's iterations rebuild: the
// filtered rows, their wire form, the messages of the three routes, the
// response arena and the combo nodes' searchers. Every Compute call made
// through one Workspace reuses them, so a run that calls Compute many times
// allocates them about once. The zero value is ready to use.
//
// A Workspace lives for one run and serves one Compute call at a time: a
// run's pipelines call Compute one after another (cc.Parallel runs its
// lanes in sequence), and inside a call only the fan-out over par takes
// searchers concurrently, through the hand-out under mu. Reused buffers are
// not zeroed; an iteration writes every slot it reads.
type Workspace struct {
	// rows double-buffers the filtered rows: an iteration reads one buffer
	// and writes the other.
	rows  [2]rowBuf
	words []cc.Word   // the rows as (col, w) word pairs
	segs  [][]cc.Word // segs[u] is u's row within words
	// collect, queries and responses are the messages of the three routes,
	// and inboxes holds what each route delivers; arena backs the
	// responses' payloads, 2k words per answer.
	collect, queries, responses []cc.Message
	inboxes                     [3]cc.Mailboxes
	arena                       []cc.Word

	mu   sync.Mutex
	idle []*searcher
}

// rowBuf holds up to n rows of at most k entries each in one backing array.
type rowBuf struct {
	rows    [][]minplus.Entry
	backing []minplus.Entry
}

// reset returns n empty rows of capacity k, carved from b's backing.
func (b *rowBuf) reset(n, k int) [][]minplus.Entry {
	b.rows = resize(b.rows, n)
	b.backing = resize(b.backing, n*k)
	for u := range b.rows {
		b.rows[u] = b.backing[u*k : u*k : (u+1)*k]
	}
	return b.rows
}

// resize returns s with length n, reallocating only when its capacity is
// short. The contents are stale: the caller writes every element it reads.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// searcher hands out an idle searcher over n nodes, making one if none is
// idle. It is safe for concurrent use.
func (ws *Workspace) searcher(n int) *searcher {
	ws.mu.Lock()
	var s *searcher
	if last := len(ws.idle) - 1; last >= 0 {
		s, ws.idle = ws.idle[last], ws.idle[:last]
	}
	ws.mu.Unlock()
	if s == nil || cap(s.dist) < n {
		return newSearcher(n)
	}
	s.resize(n)
	return s
}

// release returns s to the idle searchers. It unloads s first, so an idle
// searcher holds no segment of a finished iteration's rows.
func (ws *Workspace) release(s *searcher) {
	s.load(nil)
	ws.mu.Lock()
	ws.idle = append(ws.idle, s)
	ws.mu.Unlock()
}

// Compute runs Lemma 5.2: iters applications of the Lemma 5.1 algorithm on
// the directed (possibly capped) graph g. It requires k ≥ 1, h ≥ 1,
// iters ≥ 1; k is clamped to n. The combo nodes' local work fans out over
// par, which also carries the run's context; nil means the shared pool at
// full width. The lists returned do not alias ws.
func (ws *Workspace) Compute(par *sched.Group, clq *cc.Clique, g *graph.Graph, k, h, iters int) (*Result, error) {
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

	rows := initialRows(ws.rows[0].reset(n, k), g, k)
	hops := 1
	for it := 0; it < iters; it++ {
		next := ws.rows[(it+1)%2].reset(n, k)
		if err := ws.iterate(par, clq, n, k, h, rows, next); err != nil {
			return nil, err
		}
		rows = next
		if hops < n { // avoid overflow; hop depths beyond n are all equal
			hops *= h
		}
	}
	// Rows leave iterate sorted by (W, Col), which is the (Dist, Node)
	// order the lists promise.
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	flat := make([]graph.NodeDist, total)
	lists := make([][]graph.NodeDist, n)
	for u, row := range rows {
		lists[u], flat = flat[:len(row):len(row)], flat[len(row):]
		for i, e := range row {
			lists[u][i] = graph.NodeDist{Node: e.Col, Dist: e.W}
		}
	}
	return &Result{Lists: lists, K: k, Hops: hops}, nil
}

// initialRows fills rows, n empty rows of capacity k, with the filtered
// adjacency rows M(u): the k smallest entries of u's row in the weighted
// adjacency matrix (diagonal 0 included, cap arcs materialized as needed).
// Rows are stored sorted by (W, Col).
func initialRows(rows [][]minplus.Entry, g *graph.Graph, k int) [][]minplus.Entry {
	for u := range rows {
		rows[u] = append(rows[u], minplus.Entry{Col: u, W: 0})
		for _, a := range g.LightestOut(u, k-1) {
			rows[u] = append(rows[u], minplus.Entry{Col: a.To, W: a.W})
		}
	}
	return rows
}

// rowWords flattens each row into (col, w) word pairs, the wire form of a
// list segment, in ws's words buffer. Rows hold at most k entries.
func (ws *Workspace) rowWords(rows [][]minplus.Entry) [][]cc.Word {
	total := 0
	for _, row := range rows {
		total += 2 * len(row)
	}
	words := resize(ws.words, total)
	out := resize(ws.segs, len(rows))
	ws.words, ws.segs = words, out
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
// representing a filtered matrix Ā, it fills next, n empty rows of capacity
// k, with the k smallest entries per row of Ā^h.
func (ws *Workspace) iterate(par *sched.Group, clq *cc.Clique, n, k, h int, rows, next [][]minplus.Entry) error {
	p := int(math.Floor(math.Pow(float64(n), 1.0/float64(h)) * float64(h) / 4.0))
	binSize := 0
	if p >= 1 {
		binSize = (n*k + p - 1) / p
	}
	if p < h || binSize <= k {
		ws.fallbackBroadcast(clq, n, k, h, rows, next)
		return nil
	}

	combos := enumerateCombos(p, h)
	for len(combos) > n {
		// The paper proves h·C(p,h) ≤ n for p = ⌊n^{1/h}·h/4⌋; floor effects
		// at tiny n can still overshoot, in which case shrinking p preserves
		// correctness (bins merely get larger).
		p--
		if p < h {
			ws.fallbackBroadcast(clq, n, k, h, rows, next)
			return nil
		}
		binSize = (n*k + p - 1) / p
		if binSize <= k {
			ws.fallbackBroadcast(clq, n, k, h, rows, next)
			return nil
		}
		combos = enumerateCombos(p, h)
	}

	// The global list M: position j holds entry j%k of node j/k's row. Rows
	// shorter than k are padded with sentinels that are never sent, so a
	// node's real entries are its first len(row) positions. Bin b covers
	// positions [b·binSize, (b+1)·binSize).
	words := ws.rowWords(rows)

	// Step 3: each combo node collects the edges of its bins. Senders
	// duplicate across combos, which is the Lemma 2.2 regime. A bin spans
	// at most binSize/k + 2 rows.
	collect := slices.Grow(ws.collect[:0], len(combos)*h*(binSize/k+2))
	for comboID, cb := range combos {
		collect = appendBinSegments(collect, comboID, cb, words, k, binSize)
	}
	ws.collect = collect
	binBudget := int64(2*h*binSize + n)
	collected := clq.Route(collect, cc.RouteOpts{
		Duplicable: true,
		RecvBudget: binBudget,
		Note:       "knearest bin collection",
		Into:       &ws.inboxes[0],
	})

	// Step 4a: sources query the combo nodes whose first bin intersects
	// their list segment (positions are global knowledge, so the query is a
	// single word). Combos are enumerated first bin ascending, so those with
	// first bin b are the perBin IDs from b·perBin on.
	// A list segment meets at most two bins, since binSize > k.
	perBin := len(combos) / p
	queries := slices.Grow(ws.queries[:0], 2*n*perBin)
	for u := 0; u < n; u++ {
		lo, hi := binsOfRange(u*k, (u+1)*k, binSize, p)
		for id := lo * perBin; id < (hi+1)*perBin; id++ {
			queries = append(queries, cc.Message{From: u, To: id})
		}
	}
	ws.queries = queries
	queryBudget := int64(2*binSize + n)
	queryInbox := clq.Route(queries, cc.RouteOpts{
		SendBudget: int64(2 * (perBin + 1)),
		RecvBudget: queryBudget,
		Note:       "knearest queries",
		Into:       &ws.inboxes[1],
	})

	// Step 4b: each combo node answers every querying source with the k
	// nearest nodes it can certify from its local edges within h hops.
	// Combo nodes work independently within the round, so they fan out
	// over par. Every answer owns a 2k-word slot of one payload arena, and
	// combo c's answers fill responses[first[c]:first[c+1]], so Route sees
	// the message sequence a serial loop over the combos would produce.
	first := make([]int, len(combos)+1)
	for comboID := range combos {
		first[comboID+1] = first[comboID] + len(queryInbox[comboID])
	}
	responses := resize(ws.responses, first[len(combos)])
	arena := resize(ws.arena, 2*k*len(responses))
	ws.responses, ws.arena = responses, arena
	err := par.ForN(len(combos), chunkFor(par, len(combos)), func(lo, hi int) {
		s := ws.searcher(n)
		defer ws.release(s)
		for comboID := lo; comboID < hi; comboID++ {
			s.load(collected[comboID])
			for i, q := range queryInbox[comboID] {
				slot := first[comboID] + i
				off := 2 * k * slot
				ans := s.query(q.From, k, h, arena[off:off:off+2*k])
				responses[slot] = cc.Message{From: comboID, To: q.From, Payload: ans}
			}
		}
	})
	if err != nil {
		return err
	}
	respBudget := int64(2*k*(2*(perBin+1)) + n)
	respInbox := clq.Route(responses, cc.RouteOpts{
		Duplicable: true,
		RecvBudget: respBudget,
		Note:       "knearest responses",
		Into:       &ws.inboxes[2],
	})

	// Union-min over responses, then keep the k smallest (Lemma 5.4). Each
	// node merges into a dense best-distance vector, a searcher's dist,
	// reset through the list of nodes it touched. Answers arrive unsorted;
	// this selection sorts, and the rows must leave sorted because they
	// define the next iteration's bins.
	return par.ForN(n, chunkFor(par, n), func(lo, hi int) {
		s := ws.searcher(n)
		defer ws.release(s)
		best, cand := s.dist, s.cand
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
			next[u] = append(next[u], minplus.SmallestK(cand, k)...)
		}
		s.cand = cand
	})
}

// chunkFor splits n independent nodes into about four chunks per worker of
// par: enough to balance uneven work, few enough that per-chunk scratch is
// negligible.
func chunkFor(par *sched.Group, n int) int {
	parts := 4 * par.Max()
	return max(1, (n+parts-1)/parts)
}

// fallbackBroadcast handles the degenerate parameter regimes of §5.2: all
// lists are broadcast (n·k entries total) and every node finishes locally,
// filling next as iterate does.
func (ws *Workspace) fallbackBroadcast(clq *cc.Clique, n, k, h int, rows, next [][]minplus.Entry) {
	var total int64
	for _, row := range rows {
		total += int64(2 * len(row))
	}
	clq.Broadcast(total, "knearest fallback list broadcast")
	// Every node now knows all rows; compute h-hop k-nearest locally.
	all := ws.collect[:0]
	for u, w := range ws.rowWords(rows) {
		all = append(all, cc.Message{From: u, Payload: w})
	}
	ws.collect = all
	s := ws.searcher(n)
	defer ws.release(s)
	s.load(all)
	ans := ws.arena[:0]
	for u := 0; u < n; u++ {
		ans = s.query(u, k, h, ans[:0])
		for i := 0; i+1 < len(ans); i += 2 {
			next[u] = append(next[u], minplus.Entry{Col: int(ans[i]), W: ans[i+1]})
		}
		// Answers are unsorted, and these rows are the next iteration's
		// input or Compute's lists: both need (W, Col) order.
		slices.SortFunc(next[u], minplus.Entry.Compare)
	}
	ws.arena = ans
}

// combo is one h-combination: its bins, a distinguished first bin and then
// h−1 further distinct bins ascending (paper §5.2, Step 2).
type combo []int

// enumerateCombos lists all h·C(p,h) h-combinations deterministically:
// first bin ascending, then the (h−1)-subsets of the remaining bins in
// lexicographic order. The combos share one backing array.
func enumerateCombos(p, h int) []combo {
	var flat []int
	subset := make([]int, 0, h-1)
	var rec func(start int, first int)
	rec = func(start, first int) {
		if len(subset) == h-1 {
			flat = append(append(flat, first), subset...)
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
	out := make([]combo, len(flat)/h)
	for i := range out {
		out[i] = flat[i*h : (i+1)*h : (i+1)*h]
	}
	return out
}

// binsOfRange returns the first and last of the bins overlapping global
// positions [lo, hi).
func binsOfRange(lo, hi, binSize, p int) (first, last int) {
	return lo / binSize, min((hi-1)/binSize, p-1)
}

// appendBinSegments appends to msgs the edges that node `to` collects from
// the given bins of the global list M: one message per row segment a bin
// holds, from the row's owner, in bin order. Position j of M holds entry
// j%k of node j/k's row, words[owner] is that row as (col, w) word pairs,
// and payloads alias words. Since a bin is larger than a row, a row meets
// at most two bins, so `to` receives at most two segments of each row.
func appendBinSegments(msgs []cc.Message, to int, bins []int, words [][]cc.Word, k, binSize int) []cc.Message {
	n := len(words)
	for _, b := range bins {
		lo, hi := b*binSize, min((b+1)*binSize, n*k)
		for pos := lo; pos < hi; {
			owner := pos / k
			end := min((owner+1)*k, hi)
			from, until := pos-owner*k, min(end-owner*k, len(words[owner])/2)
			if from < until {
				payload := words[owner][2*from : 2*until : 2*until]
				msgs = append(msgs, cc.Message{From: owner, To: to, Payload: payload})
			}
			pos = end
		}
	}
	return msgs
}

// searcher answers h-hop k-nearest queries over the row segments a node
// received, read in place: segs[v] holds the at most two segments of v's
// row, (col, w) word pairs ascending by weight. Every buffer is dense over
// the n global nodes and reset through a touched list, so one searcher
// serves a run of combo nodes; a searcher is not safe for concurrent use.
type searcher struct {
	segs    [][2][]cc.Word
	senders []int32 // nodes with segments: the touched list of segs

	dist    []int64 // tentative h-hop distances, Inf between queries
	reached []int32 // nodes with a finite distance: the touched list of dist
	stamp   []int   // step in which a node last joined the frontier
	steps   int     // steps run so far, so stamps never need resetting
	// best holds the k nearest nodes reached so far with their distances,
	// as a max-heap in (dist, node) order once it is full; at[v] is v's
	// position in it, -1 when outside.
	best []nodeDist
	at   []int32
	// frontier holds (node, distance at the start of the step) pairs.
	frontier, nextFrontier []nodeDist
	// cand is iterate's merge scratch, which borrows dist as its dense
	// best-distance vector.
	cand []minplus.Entry
}

type nodeDist struct {
	v int32
	d int64
}

// before reports whether a precedes b in (dist, node) order.
func (a nodeDist) before(b nodeDist) bool {
	return a.d < b.d || (a.d == b.d && a.v < b.v)
}

func newSearcher(n int) *searcher {
	s := &searcher{
		segs:  make([][2][]cc.Word, n),
		dist:  make([]int64, n),
		stamp: make([]int, n),
		at:    make([]int32, n),
	}
	for v := range s.dist {
		s.dist[v] = minplus.Inf
		s.at[v] = -1
	}
	return s
}

// resize makes s serve n nodes; cap(s.dist) must be at least n. Beyond
// the first n nodes the dense buffers keep their between-query state (dist
// Inf, at -1, segs empty once unloaded), and stamps stay below the next
// step, so growing back within capacity needs no reset either.
func (s *searcher) resize(n int) {
	s.segs, s.dist, s.stamp, s.at = s.segs[:n], s.dist[:n], s.stamp[:n], s.at[:n]
}

// load replaces the segments with those of msgs: message m carries a
// segment of m.From's row. Each sender sends at most two.
func (s *searcher) load(msgs []cc.Message) {
	for _, v := range s.senders {
		s.segs[v] = [2][]cc.Word{}
	}
	s.senders = s.senders[:0]
	for _, m := range msgs {
		seg := &s.segs[m.From]
		if seg[0] == nil {
			seg[0] = m.Payload
			s.senders = append(s.senders, int32(m.From))
		} else {
			seg[1] = m.Payload
		}
	}
}

// query runs an h-hop Bellman–Ford from src over the loaded segments and
// appends to out the min(k, reached) nearest nodes it certifies, as (node,
// dist) word pairs in no particular order.
//
// Each step relaxes only the nodes whose distance dropped in the previous
// step (the frontier), from their distances at the start of the step. The
// other nodes' arcs were relaxed with the same distance one step earlier,
// so the result equals the full h-hop relaxation. Once k nodes are reached,
// τ is the distance at the top of best, and an arc landing beyond τ ends
// its segment's scan: tentative distances only fall, so no node beyond τ
// can still be among the k nearest, and with non-negative weights no path
// through it can either. Ties at τ are relaxed, because they compete on
// node ID.
func (s *searcher) query(src, k, h int, out []cc.Word) []cc.Word {
	s.dist[src] = 0
	s.reached = append(s.reached[:0], int32(src))
	s.offer(nodeDist{v: int32(src)}, k)
	cur, nxt := append(s.frontier[:0], nodeDist{v: int32(src)}), s.nextFrontier
	for step := 0; step < h && len(cur) > 0; step++ {
		s.steps++
		nxt = nxt[:0]
		for _, f := range cur {
			for _, seg := range &s.segs[f.v] {
				for i := 0; i+1 < len(seg); i += 2 {
					nd := minplus.SatAdd(f.d, seg[i+1])
					if len(s.best) == k && nd > s.best[0].d {
						break // the rest of the segment lands beyond τ too
					}
					to := int32(seg[i])
					if nd >= s.dist[to] {
						continue
					}
					if minplus.IsInf(s.dist[to]) {
						s.reached = append(s.reached, to)
					}
					s.dist[to] = nd
					s.offer(nodeDist{v: to, d: nd}, k)
					// The last step's frontier is never expanded.
					if step < h-1 && s.stamp[to] != s.steps {
						s.stamp[to] = s.steps
						nxt = append(nxt, nodeDist{v: to})
					}
				}
			}
		}
		for i := range nxt {
			nxt[i].d = s.dist[nxt[i].v]
		}
		cur, nxt = nxt, cur
	}
	s.frontier, s.nextFrontier = cur, nxt
	for _, b := range s.best {
		out = append(out, int64(b.v), b.d)
		s.at[b.v] = -1
	}
	s.best = s.best[:0]
	for _, v := range s.reached {
		s.dist[v] = minplus.Inf
	}
	return out
}

// offer records that node x.v's tentative distance fell to x.d. Until k
// nodes are reached, best holds them all in no order; the k-th makes it a
// heap. From then on x sinks within best, replaces its top, or stays out.
func (s *searcher) offer(x nodeDist, k int) {
	i := s.at[x.v]
	switch {
	case i >= 0:
		s.best[i].d = x.d
		if len(s.best) == k {
			s.down(int(i))
		}
	case len(s.best) < k:
		s.at[x.v] = int32(len(s.best))
		s.best = append(s.best, x)
		if len(s.best) == k {
			for j := k/2 - 1; j >= 0; j-- {
				s.down(j)
			}
		}
	case x.before(s.best[0]):
		s.at[s.best[0].v] = -1
		s.best[0], s.at[x.v] = x, 0
		s.down(0)
	}
}

// down restores the max-heap property after best[i] moved nearer.
func (s *searcher) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(s.best) && s.best[big].before(s.best[l]) {
			big = l
		}
		if r < len(s.best) && s.best[big].before(s.best[r]) {
			big = r
		}
		if big == i {
			return
		}
		s.best[i], s.best[big] = s.best[big], s.best[i]
		s.at[s.best[i].v], s.at[s.best[big].v] = int32(i), int32(big)
		i = big
	}
}

// Reference computes the k-nearest lists under hops-hop distances by direct
// per-source Bellman–Ford on the unfiltered graph — the oracle for tests
// and, via Lemma 5.5, the specification of Compute.
func Reference(g *graph.Graph, k, hops int) [][]graph.NodeDist {
	return g.KNearestHops(k, hops)
}
