package graph

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// lightestOutReference is the map-based LightestOut it replaced, kept
// verbatim as the differential reference.
func lightestOutReference(g *Graph, u, k int) []Arc {
	if k <= 0 {
		return nil
	}
	best := make(map[int]int64, len(g.adj[u]))
	for _, a := range g.adj[u] {
		w := a.W
		if g.cap > 0 && w > g.cap {
			w = g.cap
		}
		if old, ok := best[a.To]; !ok || w < old {
			best[a.To] = w
		}
	}
	arcs := make([]Arc, 0, len(best))
	for to, w := range best {
		arcs = append(arcs, Arc{To: to, W: w})
	}
	slices.SortFunc(arcs, func(a, b Arc) int {
		if c := cmp.Compare(a.W, b.W); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	if g.cap == 0 {
		if len(arcs) > k {
			arcs = arcs[:k]
		}
		return arcs
	}
	out := make([]Arc, 0, k)
	seen := make(map[int]bool, k)
	for _, a := range arcs {
		if a.W < g.cap {
			out = append(out, a)
			seen[a.To] = true
		}
	}
	if len(out) >= k {
		return out[:k]
	}
	for v := 0; v < g.n && len(out) < k; v++ {
		if v == u || seen[v] {
			continue
		}
		out = append(out, Arc{To: v, W: g.cap})
	}
	return out
}

// randomMultigraph returns a directed graph on n nodes with many parallel
// arcs, zero weights and weight ties.
func randomMultigraph(rng *rand.Rand, n int) *Graph {
	g := NewDirected(n)
	for i := rng.Intn(6 * n); i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		w := int64(rng.Intn(12))
		g.AddArc(u, v, w)
		for rng.Intn(3) == 0 { // parallel copies, lighter or heavier
			g.AddArc(u, v, int64(rng.Intn(12)))
		}
	}
	return g
}

func TestLightestOutMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(24)
		g := randomMultigraph(rng, n)
		if trial%2 == 1 {
			g.SetCap(int64(1 + rng.Intn(12)))
		}
		for u := 0; u < n; u++ {
			for k := 0; k <= n+1; k++ {
				got, want := g.LightestOut(u, k), lightestOutReference(g, u, k)
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("trial %d cap %d u=%d k=%d: got %v, reference %v",
						trial, g.Cap(), u, k, got, want)
				}
			}
		}
	}
}

// LightestOut hands the caller a fresh slice: writing into it must not
// reach the graph's own adjacency.
func TestLightestOutDoesNotAlias(t *testing.T) {
	g := NewDirected(3)
	g.AddArc(0, 1, 4)
	g.AddArc(0, 2, 2)
	out := g.LightestOut(0, 2)
	out[0].W = 99
	if w, _ := g.Weight(0, 2); w != 2 {
		t.Fatalf("stored weight changed to %d through LightestOut's result", w)
	}
}

func TestDistHeapPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h DistHeap
	for trial := 0; trial < 50; trial++ {
		h.Reset()
		var want []int64
		for i := rng.Intn(200); i > 0; i-- {
			d := int64(rng.Intn(30))
			h.Push(i, d)
			want = append(want, d)
			if rng.Intn(4) == 0 { // interleave pops with pushes
				slices.Sort(want)
				if got := h.Pop(); got.Dist != want[0] {
					t.Fatalf("trial %d: popped %d, want %d", trial, got.Dist, want[0])
				}
				want = want[1:]
			}
		}
		slices.Sort(want)
		for _, d := range want {
			if got := h.Pop(); got.Dist != d {
				t.Fatalf("trial %d: popped %d, want %d", trial, got.Dist, d)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: %d entries left", trial, h.Len())
		}
	}
}
