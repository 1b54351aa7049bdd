package spanner

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/graph"
)

// greedyReference is the map-based greedy spanner Greedy replaced, kept
// verbatim as the differential reference.
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
		limit := e.w * stretch
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
			nd := cur.d + a.W
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
				got, want := Greedy(g, k), greedyReference(g, k)
				if got.NumEdges() != want.NumEdges() {
					t.Fatalf("%d edges, reference has %d", got.NumEdges(), want.NumEdges())
				}
				for u := 0; u < g.N(); u++ {
					if !slices.Equal(got.Out(u), want.Out(u)) {
						t.Fatalf("node %d: arcs %v, reference %v", u, got.Out(u), want.Out(u))
					}
				}
			})
		}
	}
}

// Once its dist, stamp and heap storage has grown, the per-edge search of
// Greedy must not allocate.
func TestGreedySearchWarmAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := graph.RandomConnected(200, 8, graph.WeightRange{Min: 1, Max: 50}, rng)
	span := Greedy(g, 3)
	edges := collectEdges(g)
	s := newBoundedSearch(g.N())
	searchAll := func() {
		for _, e := range edges {
			s.distanceAtMost(span, e.u, e.v, 5*e.w)
		}
	}
	searchAll() // warm up
	if allocs := testing.AllocsPerRun(5, searchAll); allocs != 0 {
		t.Fatalf("warm search allocated %v times per pass over %d edges", allocs, len(edges))
	}
}

// The generation stamp must survive wrapping around. Node 1 is never
// reached before the wrap, so its stamp is still the zero it started with;
// a generation counter that wrapped to zero would take its zero distance
// for current and miss the 0→1 arc.
func TestBoundedSearchGenerationWrap(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 5)
	s := newBoundedSearch(g.N())
	s.gen = ^uint32(0) - 1
	if s.distanceAtMost(g, 0, 1, 4) {
		t.Fatal("0→1 reported within 4")
	}
	for i := 0; i < 3; i++ {
		if !s.distanceAtMost(g, 0, 1, 5) {
			t.Fatalf("search %d (gen %d): 0→1 within 5 not found", i, s.gen)
		}
	}
}
