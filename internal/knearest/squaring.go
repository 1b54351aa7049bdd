package knearest

import (
	"fmt"
	"slices"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
)

// ComputeViaSquaring is the prior-work alternative the paper improves upon
// (§5: "By applying fast matrix exponentiation, following the approach of
// [CDKL21], the computation can be done in O(log log n) rounds"): repeated
// filtered squaring of the adjacency matrix. Iteration j turns the k-nearest
// lists under 2^j-hop distances into the lists under 2^{j+1}-hop distances
// via one sparse min-plus product, charged per the CDKL21 bound (with
// densities ≤ k, each product is O(1) rounds for k ≤ √n; the cost is the
// Θ(log hops) iteration count).
//
// It returns the k-nearest lists under hop depth 2^iters — functionally
// interchangeable with Compute (the bins/h-combinations method), which the
// A5 ablation exploits to reproduce the paper's round-count comparison.
func ComputeViaSquaring(clq *cc.Clique, g *graph.Graph, k, iters int) (*Result, error) {
	n := g.N()
	if k < 1 {
		return nil, fmt.Errorf("knearest: invalid k %d", k)
	}
	if iters < 1 {
		return nil, fmt.Errorf("knearest: invalid iters %d", iters)
	}
	if k > n {
		k = n
	}

	cur := minplus.NewRowSparse(n)
	for u, row := range initialRows(new(rowBuf).reset(n, k), g, k) {
		cur.SetRow(u, row)
	}
	hops := 1
	for j := 0; j < iters; j++ {
		rho := cur.Density()
		clq.ChargeRounds(minplus.CDKL21Rounds(rho, rho, float64(k), n))
		prod := minplus.MulSparse(cur, cur)
		next := minplus.NewRowSparse(n)
		for u := 0; u < n; u++ {
			row := append([]minplus.Entry(nil), prod.Row(u)...)
			slices.SortFunc(row, minplus.Entry.Compare)
			if len(row) > k {
				row = row[:k]
			}
			next.SetRow(u, row)
		}
		cur = next
		if hops < n {
			hops *= 2
		}
	}

	lists := make([][]graph.NodeDist, n)
	for u := 0; u < n; u++ {
		row := append([]minplus.Entry(nil), cur.Row(u)...)
		slices.SortFunc(row, minplus.Entry.Compare)
		lists[u] = make([]graph.NodeDist, 0, len(row))
		for _, e := range row {
			lists[u] = append(lists[u], graph.NodeDist{Node: e.Col, Dist: e.W})
		}
	}
	return &Result{Lists: lists, K: k, Hops: hops}, nil
}
