package hopset

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
)

// decodeArcsReference and localDijkstraReference are the map-indexed step 3
// that localSearch replaced, kept verbatim as the differential reference.
func decodeArcsReference(payload []cc.Word) []graph.Arc {
	arcs := make([]graph.Arc, 0, len(payload)/2)
	for i := 0; i+1 < len(payload); i += 2 {
		arcs = append(arcs, graph.Arc{To: int(payload[i]), W: payload[i+1]})
	}
	return arcs
}

func localDijkstraReference(n, src int, adj map[int][]graph.Arc) []int64 {
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = minplus.Inf
	}
	dist[src] = 0
	pq := &nodeHeap{{node: src, d: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(nodeDist)
		if cur.d > dist[cur.node] {
			continue
		}
		for _, a := range adj[cur.node] {
			nd := minplus.SatAdd(cur.d, a.W)
			if nd < dist[a.To] {
				dist[a.To] = nd
				heap.Push(pq, nodeDist{node: a.To, d: nd})
			}
		}
	}
	return dist
}

type nodeDist struct {
	node int
	d    int64
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func randomArcs(rng *rand.Rand, n int) []graph.Arc {
	arcs := make([]graph.Arc, rng.Intn(2*n))
	for i := range arcs {
		arcs[i] = graph.Arc{To: rng.Intn(n), W: int64(rng.Intn(8))} // zero weights, ties, parallels
	}
	return arcs
}

// One localSearch serves a long run of searches with different sources,
// senders and payload sizes; every answer must match a fresh map-indexed
// search, so nothing may leak from one search into the next.
func TestLocalSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 30
	local := newLocalSearch(n)
	for call := 0; call < 500; call++ {
		src := rng.Intn(n)
		own := randomArcs(rng, n)
		adj := map[int][]graph.Arc{src: own}
		var inbox []cc.Message
		for _, from := range rng.Perm(n)[:rng.Intn(n)] {
			if from == src {
				continue
			}
			m := cc.Message{From: from, To: src, Payload: encodeArcs(randomArcs(rng, n))}
			inbox = append(inbox, m)
			adj[m.From] = decodeArcsReference(m.Payload)
		}
		slices.SortFunc(inbox, func(a, b cc.Message) int { return a.From - b.From })
		want := localDijkstraReference(n, src, adj)
		if got := local.run(src, own, inbox); !slices.Equal(got, want) {
			t.Fatalf("call %d src %d: dist %v, reference %v", call, src, got, want)
		}
	}
}
