package skeleton

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
)

// buildXReference, buildYReference and skeletonGraphReference are the
// map-based aggregations they replaced, kept verbatim as the differential
// reference (buildXReference minus its unused xAtT table).
func buildXReference(clq *cc.Clique, in Input, center []int, deltaC []int64) *minplus.RowSparse {
	n := in.G.N()
	var toT []cc.Message
	for u := 0; u < n; u++ {
		for _, nd := range in.Lists[u] {
			toT = append(toT, cc.Message{
				From:    u,
				To:      nd.Node,
				Payload: []cc.Word{int64(center[u]), minplus.SatAdd(deltaC[u], nd.Dist)},
			})
		}
	}
	inboxT := clq.Route(toT, cc.RouteOpts{
		SendBudget: int64(2 * in.K),
		RecvBudget: int64(2 * n),
		Note:       "skeleton x to-t",
	})
	var toS []cc.Message
	for t := 0; t < n; t++ {
		mins := make(map[int]int64)
		for _, m := range inboxT[t] {
			s, val := int(m.Payload[0]), m.Payload[1]
			if old, ok := mins[s]; !ok || val < old {
				mins[s] = val
			}
		}
		for s, val := range mins {
			toS = append(toS, cc.Message{From: t, To: s, Payload: []cc.Word{val}})
		}
	}
	inboxS := clq.Route(toS, cc.RouteOpts{
		SendBudget: int64(n),
		RecvBudget: int64(n),
		Note:       "skeleton x to-s",
	})
	x := minplus.NewRowSparse(n)
	rowEnts := make([][]minplus.Entry, n)
	for s := 0; s < n; s++ {
		for _, m := range inboxS[s] {
			rowEnts[s] = append(rowEnts[s], minplus.Entry{Col: m.From, W: m.Payload[0]})
		}
	}
	for s, ents := range rowEnts {
		if len(ents) > 0 {
			x.SetRow(s, ents)
		}
	}
	return x
}

func buildYReference(clq *cc.Clique, in Input, s []int, center []int, deltaC []int64) *minplus.RowSparse {
	n := in.G.N()
	var toT []cc.Message
	for v := 0; v < n; v++ {
		for _, a := range in.G.Out(v) {
			toT = append(toT, cc.Message{
				From:    v,
				To:      a.To,
				Payload: []cc.Word{int64(center[v]), minplus.SatAdd(a.W, deltaC[v])},
			})
		}
	}
	inboxT := clq.Route(toT, cc.RouteOpts{
		SendBudget: int64(2 * n),
		RecvBudget: int64(2 * n),
		Note:       "skeleton y edges",
	})
	var capMin map[int]int64
	if in.G.Cap() > 0 {
		capMin = make(map[int]int64, len(s))
		for v := 0; v < n; v++ {
			c := center[v]
			if old, ok := capMin[c]; !ok || deltaC[v] < old {
				capMin[c] = deltaC[v]
			}
		}
	}
	y := minplus.NewRowSparse(n)
	for t := 0; t < n; t++ {
		mins := make(map[int]int64)
		for _, m := range inboxT[t] {
			sb, val := int(m.Payload[0]), m.Payload[1]
			if old, ok := mins[sb]; !ok || val < old {
				mins[sb] = val
			}
		}
		if old, ok := mins[center[t]]; !ok || deltaC[t] < old {
			mins[center[t]] = deltaC[t]
		}
		if capMin != nil {
			for sb, dv := range capMin {
				val := minplus.SatAdd(in.G.Cap(), dv)
				if old, ok := mins[sb]; !ok || val < old {
					mins[sb] = val
				}
			}
		}
		ents := make([]minplus.Entry, 0, len(mins))
		for sb, val := range mins {
			ents = append(ents, minplus.Entry{Col: sb, W: val})
		}
		y.SetRow(t, ents)
	}
	return y
}

func skeletonGraphReference(s, index []int, prod *minplus.RowSparse) *graph.Graph {
	gs := graph.New(len(s))
	type edge struct{ a, b int }
	bestEdge := make(map[edge]int64)
	for _, sa := range s {
		for _, e := range prod.Row(sa) {
			sb := e.Col
			if sb == sa || index[sb] < 0 {
				continue
			}
			a, b := index[sa], index[sb]
			if a > b {
				a, b = b, a
			}
			k := edge{a, b}
			if old, ok := bestEdge[k]; !ok || e.W < old {
				bestEdge[k] = e.W
			}
		}
	}
	for k, w := range bestEdge {
		gs.AddEdge(k.a, k.b, w)
	}
	gs.Normalize()
	return gs
}

func sameRows(t *testing.T, what string, got, want *minplus.RowSparse) {
	t.Helper()
	for i := 0; i < want.N(); i++ {
		if !slices.Equal(got.Row(i), want.Row(i)) {
			t.Fatalf("%s row %d: %v, reference %v", what, i, got.Row(i), want.Row(i))
		}
	}
}

// The dense-minima aggregation must produce the same X, Y and G_S as the
// map-based one, and charge the clique exactly the same, on plain and
// capped graphs with zero weights, ties and parallel edges.
func TestAggregationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 12; trial++ {
		wr := graph.WeightRange{Min: 1, Max: 30}
		if trial%3 == 2 {
			wr = graph.UnitWeights
		}
		var g *graph.Graph
		if trial%4 == 3 {
			g, _ = graph.ZeroClusters(48, 6, wr, rng)
		} else {
			g = graph.RandomConnected(48, 5, wr, rng)
		}
		if trial%2 == 1 {
			g.SetCap(int64(5 + rng.Intn(20)))
		}
		k := 4 + rng.Intn(8)
		in := Input{G: g, K: k, A: 1, Lists: g.KNearest(k), Rng: rand.New(rand.NewSource(int64(trial)))}
		t.Run(fmt.Sprintf("trial=%d/cap=%d/k=%d", trial, g.Cap(), k), func(t *testing.T) {
			sk, err := Build(cc.New(g.N(), 1), in)
			if err != nil {
				t.Fatal(err)
			}
			clqA, clqB := cc.New(g.N(), 1), cc.New(g.N(), 1)
			x := buildX(clqA, in, sk.Center, sk.DeltaC)
			xr := buildXReference(clqB, in, sk.Center, sk.DeltaC)
			sameRows(t, "X", x, xr)
			// The reference sends one y message per arc, buildY one per
			// distinct neighbour over the lightest arc: the reference runs
			// on the graph with its parallel edges merged, and must then
			// agree exactly.
			merged := in
			merged.G = g.Clone().Normalize()
			y := buildY(clqA, in, sk.Center, sk.DeltaC)
			yr := buildYReference(clqB, merged, sk.Nodes, sk.Center, sk.DeltaC)
			sameRows(t, "Y", y, yr)
			if ma, mb := clqA.Metrics(), clqB.Metrics(); !reflect.DeepEqual(ma, mb) {
				t.Fatalf("clique charges differ:\n got %+v\nwant %+v", ma, mb)
			}
			prod := minplus.MulSparse(x, y)
			gs, gr := skeletonGraph(sk.Nodes, sk.Index, prod), skeletonGraphReference(sk.Nodes, sk.Index, prod)
			if gs.NumArcs() != gr.NumArcs() {
				t.Fatalf("G_S has %d arcs, reference %d", gs.NumArcs(), gr.NumArcs())
			}
			for a := 0; a < gs.N(); a++ {
				if !slices.Equal(gs.Out(a), gr.Out(a)) {
					t.Fatalf("G_S node %d: %v, reference %v", a, gs.Out(a), gr.Out(a))
				}
			}
		})
	}
}
