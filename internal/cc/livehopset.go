package cc

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/congestedclique/cliqueapsp/internal/minplus"
)

// Hopset runs the paper's §4.1 hopset construction as a real
// goroutine-per-node protocol in three physical communication rounds:
//
//	round 1 — every node v requests edges from its approximate k-nearest
//	          set Ñk(v) (one word per request);
//	round 2 — every queried node replies with its k lightest out-arcs
//	          (2k words; the engine's bandwidth must be ≥ 2k words,
//	          mirroring the CFG+20 routing the superstep engine charges);
//	round 3 — each computed shortcut arc is announced to its far endpoint.
//
// adj[v] are v's out-arcs, deltaRows[v] is v's row of the distance
// estimate (length n). It returns each node's hopset out-arcs, sorted by
// destination. The output is byte-identical to the superstep
// hopset.Build on the same inputs — the cross-engine equivalence tests
// rely on this.
func (e *LiveEngine) Hopset(adj [][]LiveArc, deltaRows [][]Word, k int) ([][]LiveArc, Metrics, error) {
	n := e.n
	if len(adj) != n || len(deltaRows) != n {
		return nil, Metrics{}, fmt.Errorf("cc: hopset inputs sized %d/%d for %d nodes", len(adj), len(deltaRows), n)
	}
	if k < 1 {
		return nil, Metrics{}, fmt.Errorf("cc: invalid k %d", k)
	}
	if k > n {
		k = n
	}
	if e.bw < 2*k {
		return nil, Metrics{}, fmt.Errorf("cc: hopset replies need bandwidth ≥ %d words, engine has %d", 2*k, e.bw)
	}
	out := make([][]LiveArc, n)
	metrics, err := e.Run(func(ctx *NodeCtx) error {
		id := ctx.ID()

		// Local: Ñk(id) = k smallest estimate entries, (value, ID) ties.
		near := kSmallestRow(deltaRows[id], k)

		// Round 1: requests.
		for _, ent := range near {
			if ent.Col == id {
				continue
			}
			if err := ctx.Send(ent.Col, 1); err != nil {
				return err
			}
		}
		requests := ctx.EndRound()

		// Round 2: replies with the k lightest out-arcs.
		mine := lightestArcs(adj[id], k)
		payload := make([]Word, 0, 2*len(mine))
		for _, a := range mine {
			payload = append(payload, Word(a.To), a.W)
		}
		for _, req := range requests {
			if err := ctx.Send(req.From, payload...); err != nil {
				return err
			}
		}
		replies := ctx.EndRound()

		// Local: Dijkstra over received arcs plus own out-arcs.
		local := make(map[int][]LiveArc, len(replies)+1)
		local[id] = adj[id]
		for _, m := range replies {
			arcs := make([]LiveArc, 0, len(m.Payload)/2)
			for i := 0; i+1 < len(m.Payload); i += 2 {
				arcs = append(arcs, LiveArc{To: int(m.Payload[i]), W: m.Payload[i+1]})
			}
			local[m.From] = arcs
		}
		dist := mapDijkstra(n, id, local)

		// Shortcut arcs to Ñk(id); round 3 announces them to the endpoint.
		var arcs []LiveArc
		for _, ent := range near {
			u := ent.Col
			if u == id || minplus.IsInf(dist[u]) {
				continue
			}
			arcs = append(arcs, LiveArc{To: u, W: dist[u]})
			if err := ctx.Send(u, Word(id), dist[u]); err != nil {
				return err
			}
		}
		ctx.EndRound()
		slices.SortFunc(arcs, func(a, b LiveArc) int { return cmp.Compare(a.To, b.To) })
		out[id] = arcs
		return nil
	})
	return out, metrics, err
}

// kSmallestRow mirrors minplus.Dense.KSmallestInRow for a raw row slice.
func kSmallestRow(row []Word, k int) []minplus.Entry {
	ents := make([]minplus.Entry, 0, len(row))
	for col, v := range row {
		if !minplus.IsInf(v) {
			ents = append(ents, minplus.Entry{Col: col, W: v})
		}
	}
	slices.SortFunc(ents, minplus.Entry.Compare)
	if len(ents) > k {
		ents = ents[:k]
	}
	return ents
}

// lightestArcs returns the k lightest arcs by (weight, destination),
// parallel arcs merged to their minimum — the live counterpart of
// graph.LightestOut on uncapped graphs.
func lightestArcs(arcs []LiveArc, k int) []LiveArc {
	best := make(map[int]int64, len(arcs))
	for _, a := range arcs {
		if old, ok := best[a.To]; !ok || a.W < old {
			best[a.To] = a.W
		}
	}
	out := make([]LiveArc, 0, len(best))
	for to, w := range best {
		out = append(out, LiveArc{To: to, W: w})
	}
	slices.SortFunc(out, func(a, b LiveArc) int {
		if c := cmp.Compare(a.W, b.W); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// mapDijkstra runs Dijkstra from src over a sparse arc map.
func mapDijkstra(n, src int, adj map[int][]LiveArc) []int64 {
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = minplus.Inf
	}
	dist[src] = 0
	type qe struct {
		node int
		d    int64
	}
	queue := []qe{{node: src, d: 0}}
	for len(queue) > 0 {
		// Extract min (the frontier stays small; linear scan keeps this
		// dependency-free).
		mi := 0
		for i := 1; i < len(queue); i++ {
			if queue[i].d < queue[mi].d {
				mi = i
			}
		}
		cur := queue[mi]
		queue[mi] = queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if cur.d > dist[cur.node] {
			continue
		}
		for _, a := range adj[cur.node] {
			nd := minplus.SatAdd(cur.d, a.W)
			if nd < dist[a.To] {
				dist[a.To] = nd
				queue = append(queue, qe{node: a.To, d: nd})
			}
		}
	}
	return dist
}
