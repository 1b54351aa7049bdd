package knearest

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
)

// The combo-node search before the τ bound, kept as the reference the
// searcher is checked against: a CSR rebuilt per edge multiset, a full
// frontier Bellman–Ford over every local arc, and minplus.SmallestK's
// sorted k-selection.

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

// TestSearcherMatchesCSRReference drives the searcher and the CSR reference
// over the same received segments and compares every source's answer set.
// Weights in [0, 3] give zero-weight arcs and ties at the k-th distance;
// bins smaller than three rows split rows across two bins, in both arrival
// orders; sparse graphs leave sources with fewer than k reachable nodes.
func TestSearcherMatchesCSRReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var lg localGraph
	var zeroArcs, splitForward, splitBack, belowK, tiesAtK int
	for trial := 0; trial < 400; trial++ {
		h := []int{1, 2, 3, 5}[trial%4]
		n := 6 + rng.Intn(40)
		k := 1 + rng.Intn(min(n, 8))
		g := graph.NewDirected(n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := int64(rng.Intn(4))
			if w == 0 {
				zeroArcs++
			}
			g.AddArc(u, v, w)
		}
		words := new(Workspace).rowWords(initialRows(new(rowBuf).reset(n, k), g, k))

		// A random combo of up to h distinct bins, first bin included, in
		// the order a combo lists them: first, then the rest ascending.
		binSize := k + 1 + rng.Intn(2*k+1)
		p := (n*k + binSize - 1) / binSize
		perm := rng.Perm(p)[:min(h, p)]
		bins := append([]int{perm[0]}, perm[1:]...)
		slices.Sort(bins[1:])
		for _, b := range bins[1:] {
			// Adjacent bins share a row when the boundary between them
			// falls inside one.
			lo, hi := min(b, bins[0]), max(b, bins[0])
			if hi-lo == 1 && (hi*binSize)%k != 0 && hi*binSize < n*k {
				if b < bins[0] {
					splitBack++
				} else {
					splitForward++
				}
			}
		}
		inbox := cc.New(n, 1).Route(appendBinSegments(nil, 0, bins, words, k, binSize), cc.RouteOpts{})[0]

		s := newSearcher(n)
		s.load(inbox)
		lg.load(n, inbox)
		var got []cc.Word
		for src := 0; src < n; src++ {
			got = s.query(src, k, h, got[:0])
			want := lg.hopKNearest(src, k, h)
			if len(want) < k {
				belowK++
			} else if slices.ContainsFunc(lg.cand[k:], func(e minplus.Entry) bool { return e.W == want[k-1].W }) {
				tiesAtK++
			}
			ents := make([]minplus.Entry, len(got)/2)
			for i := range ents {
				ents[i] = minplus.Entry{Col: int(got[2*i]), W: got[2*i+1]}
			}
			slices.SortFunc(ents, minplus.Entry.Compare)
			if !slices.Equal(ents, want) {
				t.Fatalf("trial %d (n=%d k=%d h=%d bins=%v binSize=%d) source %d:\n got  %v\n want %v",
					trial, n, k, h, bins, binSize, src, ents, want)
			}
		}
	}
	t.Logf("zero arcs %d, split rows %d forward / %d back, answers below k %d, ties at k %d",
		zeroArcs, splitForward, splitBack, belowK, tiesAtK)
	if zeroArcs == 0 || splitForward == 0 || splitBack == 0 || belowK == 0 || tiesAtK == 0 {
		t.Fatal("random configs missed a case the comparison must cover")
	}
}

// Zero weights and dense ties at every hop depth the searcher must cover,
// end to end. Filtering keeps the k nearest distances exact (Lemma 5.5),
// but where zero-weight ties sit at the k-th distance the filtered rows can
// certify different nodes at that distance than the unfiltered reference
// picks, so the lists are compared by length and distance sequence.
func TestComputeZeroWeightTiesMatchReferenceDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 16; trial++ {
		h := []int{1, 2, 3, 5}[trial%4]
		n := 20 + rng.Intn(60)
		g := graph.NewDirected(n)
		for i := 2 * n; i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.AddArc(u, v, int64(rng.Intn(3)))
			}
		}
		k, iters := 2+rng.Intn(6), 1+rng.Intn(2)
		clq := cc.New(n, 1)
		got, err := Compute(nil, clq, g, k, h, iters)
		if err != nil {
			t.Fatal(err)
		}
		want := Reference(g, k, got.Hops)
		for u := range want {
			if len(got.Lists[u]) != len(want[u]) {
				t.Fatalf("trial %d node %d: %d entries, want %d", trial, u, len(got.Lists[u]), len(want[u]))
			}
			for i := range want[u] {
				if got.Lists[u][i].Dist != want[u][i].Dist {
					t.Fatalf("trial %d node %d entry %d: got %v, want %v", trial, u, i, got.Lists[u][i], want[u][i])
				}
			}
		}
		if v := clq.Metrics().Violations; len(v) != 0 {
			t.Fatalf("trial %d: violations %v", trial, v)
		}
	}
}
