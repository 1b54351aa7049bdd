package spanner

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
)

// greedyReference is the map-based greedy spanner of one bounded search per
// edge, kept as the differential reference. It differs from the original
// only in saturating its arithmetic: the keep/reject limit w·(2k−1) stops at
// the largest finite distance Inf−1 instead of wrapping, and a path that
// reaches Inf counts as no path, as in the semiring.
func greedyReference(g *graph.Graph, k int) *graph.Graph {
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
	for i := range edges {
		e := &edges[i]
		limit := minplus.Inf - 1
		if e.w <= limit/stretch {
			limit = e.w * stretch
		}
		if boundedDistanceAtMostReference(span, e.u, e.v, limit) {
			continue
		}
		span.AddEdge(e.u, e.v, e.w)
	}
	return span
}

func boundedDistanceAtMostReference(s *graph.Graph, src, dst int, limit int64) bool {
	dist := map[int]int64{src: 0}
	pq := &distHeap{{node: src, d: 0}}
	for pq.Len() > 0 {
		cur := popHeap(pq)
		if cur.d > limit {
			return false
		}
		if cur.node == dst {
			return true
		}
		if d, ok := dist[cur.node]; ok && cur.d > d {
			continue
		}
		for _, a := range s.Out(cur.node) {
			nd := minplus.SatAdd(cur.d, a.W)
			if nd > limit {
				continue
			}
			if d, ok := dist[a.To]; !ok || nd < d {
				dist[a.To] = nd
				pushHeap(pq, distEntry{node: a.To, d: nd})
			}
		}
	}
	return false
}

type distEntry struct {
	node int
	d    int64
}

type distHeap []distEntry

func (h distHeap) less(i, j int) bool { return h[i].d < h[j].d }

func pushHeap(h *distHeap, e distEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func popHeap(h *distHeap) distEntry {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(*h) && (*h).less(l, smallest) {
			smallest = l
		}
		if r < len(*h) && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

func (h distHeap) Len() int { return len(h) }

// withTinyWeights rebuilds g with every weight drawn from {0, 1, 2}: zero
// weights plus heavy ties.
func withTinyWeights(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	out := graph.New(g.N())
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Out(u) {
			if u < a.To {
				out.AddEdge(u, a.To, rng.Int63n(3))
			}
		}
	}
	return out
}

// differentialGraphs covers every named generator, tie-heavy unit weights,
// zero-weight clusters, and the tiny-weight variant of each.
func differentialGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	wr := graph.WeightRange{Min: 1, Max: 40}
	out := make(map[string]*graph.Graph)
	for _, name := range []string{"random", "grid", "ring", "clustered", "powerlaw", "regular", "hypercube", "path", "star", "complete"} {
		g, err := graph.GeneratorByName(name, 40, wr, rng)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
		out[name+"/ties"] = withTinyWeights(g, rng)
		unit, err := graph.GeneratorByName(name, 40, graph.UnitWeights, rng)
		if err != nil {
			t.Fatal(err)
		}
		out[name+"/unit"] = unit
	}
	zero, _ := graph.ZeroClusters(40, 5, wr, rng)
	out["zeroclusters"] = zero
	return out
}

func TestGreedyMatchesReference(t *testing.T) {
	for name, g := range differentialGraphs(t) {
		for _, k := range []int{2, 3, 5, 9} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				got, _ := Greedy(g, k)
				assertSameArcs(t, got, greedyReference(g, k))
			})
		}
	}
}

func assertSameArcs(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%d edges, reference has %d", got.NumEdges(), want.NumEdges())
	}
	for u := 0; u < got.N(); u++ {
		if !slices.Equal(got.Out(u), want.Out(u)) {
			t.Fatalf("node %d: arcs %v, reference %v", u, got.Out(u), want.Out(u))
		}
	}
}

// A triangle whose weights times 2k−1 pass MaxInt64. At w = 2^60−1 the
// two-hop path (2^61−2) is finite and within the saturated limit, so the
// last edge is redundant; a wrapping limit went negative and kept it. At
// w = 2^60 the two-hop path reaches Inf, the semiring's "no path", so the
// last edge is needed and kept.
func TestGreedyLimitSaturates(t *testing.T) {
	for _, tc := range []struct {
		w     int64
		edges int
	}{{1<<60 - 1, 2}, {1 << 60, 3}} {
		g := graph.New(3)
		g.AddEdge(0, 1, tc.w)
		g.AddEdge(0, 2, tc.w)
		g.AddEdge(1, 2, tc.w)
		span, d := Greedy(g, 5)
		if span.NumEdges() != tc.edges {
			t.Errorf("w=%d: kept %d edges, want %d", tc.w, span.NumEdges(), tc.edges)
		}
		assertSameArcs(t, span, greedyReference(g, 5))
		assertSameMatrix(t, d, span.ExactAPSP())
	}
}

func assertSameMatrix(t *testing.T, got, want *minplus.Dense) {
	t.Helper()
	for i := 0; i < want.N(); i++ {
		if !slices.Equal(got.Row(i), want.Row(i)) {
			t.Fatalf("row %d: %v, ExactAPSP %v", i, got.Row(i), want.Row(i))
		}
	}
}

// Greedy's incrementally kept matrix must equal a from-scratch ExactAPSP of
// the spanner it returns, entry for entry, Inf included.
func TestGreedyMatrixMatchesExactAPSP(t *testing.T) {
	graphs := differentialGraphs(t)
	// The skeleton graph G_S of a constant build is near-complete.
	rng := rand.New(rand.NewSource(33))
	near := graph.New(100)
	for u := 0; u < 100; u++ {
		for v := u + 1; v < 100; v++ {
			if rng.Intn(10) != 0 {
				near.AddEdge(u, v, 1+rng.Int63n(100))
			}
		}
	}
	graphs["nearcomplete"] = near
	for name, g := range graphs {
		for _, k := range []int{2, 3, 5, 9} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				span, d := Greedy(g, k)
				assertSameMatrix(t, d, span.ExactAPSP())
			})
		}
	}
}

// One Greedy call allocates its outputs (the spanner's adjacency and the
// n×n matrix), the sorted edge list and O(n) words of scratch, and nothing
// per scanned or kept edge. The bound is what replaying the output costs:
// the same AddEdge sequence into a fresh graph plus one matrix.
func TestGreedyAllocatesOutputsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := graph.Complete(108, graph.WeightRange{Min: 1, Max: 100}, rng)
	span, _ := Greedy(g, 3)
	kept := collectEdges(span) // Greedy's scan order, so its AddEdge order
	replay := func() {
		out := graph.New(g.N())
		for _, e := range kept {
			out.AddEdge(e.u, e.v, e.w)
		}
		minplus.Identity(g.N())
	}
	const scratch = 8 // the edge list, the update's four vectors, slack
	outputs := testing.AllocsPerRun(3, replay)
	got := testing.AllocsPerRun(3, func() { Greedy(g, 3) })
	if got > outputs+scratch {
		t.Fatalf("Greedy made %v allocations over %d edges (%d kept); its outputs take %v",
			got, g.NumEdges(), len(kept), outputs)
	}
}
