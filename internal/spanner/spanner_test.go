package spanner

import (
	"math"
	"math/rand"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/graph"
)

func testGraphs(rng *rand.Rand) map[string]*graph.Graph {
	wr := graph.WeightRange{Min: 1, Max: 40}
	return map[string]*graph.Graph{
		"random":    graph.RandomConnected(60, 6, wr, rng),
		"dense":     graph.RandomConnected(40, 12, wr, rng),
		"grid":      graph.Grid(6, 6, wr, rng),
		"ring":      graph.RingChords(50, 12, wr, rng),
		"clustered": graph.Clustered(48, 4, 4, wr, rng),
		"complete":  graph.Complete(20, wr, rng),
		"unit":      graph.RandomConnected(50, 8, graph.UnitWeights, rng),
	}
}

func TestBaswanaSenStretchAndSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for name, g := range testGraphs(rng) {
		for _, k := range []int{2, 3, 4} {
			s := BaswanaSen(g, k, rng)
			if !IsSubgraph(s, g) {
				t.Fatalf("%s k=%d: spanner is not a subgraph", name, k)
			}
			stretch := MaxStretch(g, s)
			if limit := float64(2*k - 1); stretch > limit {
				t.Fatalf("%s k=%d: stretch %.2f exceeds %v", name, k, stretch, limit)
			}
		}
	}
}

func TestBaswanaSenManySeeds(t *testing.T) {
	// Stretch must hold for every random outcome; sweep seeds.
	base := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(50, 7, graph.WeightRange{Min: 1, Max: 25}, base)
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := BaswanaSen(g, 3, rng)
		if st := MaxStretch(g, s); st > 5 {
			t.Fatalf("seed %d: stretch %.2f > 5", seed, st)
		}
	}
}

func TestBaswanaSenSizeBound(t *testing.T) {
	// Expected size is O(k·n^{1+1/k}); assert a generous constant on a dense
	// graph where sparsification actually happens.
	rng := rand.New(rand.NewSource(4))
	g := graph.Complete(60, graph.WeightRange{Min: 1, Max: 100}, rng)
	n := float64(g.N())
	for _, k := range []int{2, 3} {
		s := BaswanaSen(g, k, rng)
		bound := 8 * float64(k) * math.Pow(n, 1+1.0/float64(k))
		if got := float64(s.NumEdges()); got > bound {
			t.Fatalf("k=%d: %v edges exceeds bound %v", k, got, bound)
		}
		if s.NumEdges() >= g.NumEdges() && k >= 2 {
			t.Fatalf("k=%d: spanner did not sparsify complete graph (%d edges)", k, s.NumEdges())
		}
	}
}

func TestBaswanaSenK1ReturnsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(20, 4, graph.WeightRange{Min: 1, Max: 9}, rng)
	s := BaswanaSen(g, 1, rng)
	if s.NumEdges() != g.NumEdges() {
		t.Fatalf("k=1 must keep all %d edges, got %d", g.NumEdges(), s.NumEdges())
	}
	if st := MaxStretch(g, s); st != 1 {
		t.Fatalf("k=1 stretch = %v, want 1", st)
	}
}

func TestGreedyStretchAndSize(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for name, g := range testGraphs(rng) {
		for _, k := range []int{2, 3, 4} {
			s, _ := Greedy(g, k)
			if !IsSubgraph(s, g) {
				t.Fatalf("%s k=%d: greedy spanner is not a subgraph", name, k)
			}
			if st := MaxStretch(g, s); st > float64(2*k-1) {
				t.Fatalf("%s k=%d: stretch %.2f exceeds %d", name, k, st, 2*k-1)
			}
			n := float64(g.N())
			bound := math.Pow(n, 1+1.0/float64(k)) + n
			if got := float64(s.NumEdges()); got > bound {
				t.Fatalf("%s k=%d: %v edges exceeds girth bound %v", name, k, got, bound)
			}
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(40, 6, graph.WeightRange{Min: 1, Max: 30}, rng)
	s1, _ := Greedy(g, 3)
	s2, _ := Greedy(g, 3)
	if s1.NumEdges() != s2.NumEdges() {
		t.Fatal("greedy spanner not deterministic")
	}
}

func TestGreedyPreservesConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for name, g := range testGraphs(rng) {
		s, _ := Greedy(g, 4)
		if !s.IsConnected() {
			t.Fatalf("%s: greedy spanner disconnected", name)
		}
	}
}

func TestBaswanaSenPreservesConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, g := range testGraphs(rng) {
		s := BaswanaSen(g, 3, rng)
		if !s.IsConnected() {
			t.Fatalf("%s: spanner disconnected", name)
		}
	}
}

func TestIsSubgraphRejectsForeignEdge(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 5)
	s := graph.New(3)
	s.AddEdge(1, 2, 1)
	if IsSubgraph(s, g) {
		t.Fatal("foreign edge accepted")
	}
	s2 := graph.New(3)
	s2.AddEdge(0, 1, 4) // lighter than in g: not a subgraph
	if IsSubgraph(s2, g) {
		t.Fatal("lighter edge accepted")
	}
}

func TestMaxStretchIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := graph.RandomConnected(25, 5, graph.WeightRange{Min: 1, Max: 10}, rng)
	if st := MaxStretch(g, g); st != 1 {
		t.Fatalf("self stretch = %v, want 1", st)
	}
}
