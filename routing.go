package cliqueapsp

import (
	"errors"
	"fmt"
)

// ErrNoRoute reports that greedy forwarding hit a dead end or a loop before
// reaching the destination — possible when next hops come from approximate
// distances, and the expected outcome for unreachable pairs.
var ErrNoRoute = errors.New("cliqueapsp: greedy forwarding found no route")

// RouteToward forwards one packet greedily from u to v, reading every hop
// off rowV, the estimate's distance row of the destination. At each node x
// it takes the neighbor w minimizing w(x,w) + rowV[w], ties to the smallest
// index, over the lightest of parallel edges; costs at or above Inf elect no
// hop. rowV[w] is read as δ(w,v): on the symmetric estimates every builtin
// produces that is row v itself, and SimulateForwarding passes column v of
// any estimate. One row serves every node on the route, and the walk scans
// only the route's adjacency.
//
// It returns the hop sequence (u..v inclusive) and the summed weights of
// the edges taken. A dead end and a loop (caught at the first revisit: a
// hop depends only on the node and v, so a revisit repeats forever) return
// ErrNoRoute, the expected outcome for unreachable pairs. Apart from the
// returned path it allocates nothing for n ≤ 4096.
func RouteToward(g *Graph, u, v int, rowV []int64) ([]int, int64, error) {
	n := g.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		return nil, 0, fmt.Errorf("cliqueapsp: route (%d,%d) out of range for n=%d", u, v, n)
	}
	if len(rowV) != n {
		return nil, 0, fmt.Errorf("cliqueapsp: distance row has %d entries, want %d", len(rowV), n)
	}
	var small [64]uint64 // one bit per node on the path
	visited := small[:]
	if words := (n + 63) / 64; words > len(small) {
		visited = make([]uint64, words)
	}
	visited[u/64] |= 1 << (u % 64)
	path := append(make([]int, 0, 8), u)
	cur, cost := u, int64(0)
	for cur != v {
		nh, nw, best := -1, int64(0), int64(0)
		for _, a := range g.inner.Out(cur) {
			// Saturating, as minplus.SatAdd: a cost at or above Inf elects
			// nothing. With both operands below Inf the sum cannot overflow.
			if a.W >= Inf || rowV[a.To] >= Inf {
				continue
			}
			c := a.W + rowV[a.To]
			if c >= Inf {
				continue
			}
			if nh == -1 || c < best || (c == best && a.To < nh) {
				nh, nw, best = a.To, a.W, c
			}
		}
		if nh < 0 {
			return nil, 0, fmt.Errorf("%w: dead end at %d routing %d to %d", ErrNoRoute, cur, u, v)
		}
		if visited[nh/64]&(1<<(nh%64)) != 0 {
			return nil, 0, fmt.Errorf("%w: loop routing %d to %d", ErrNoRoute, u, v)
		}
		visited[nh/64] |= 1 << (nh % 64)
		cost += nw
		path = append(path, nh)
		cur = nh
	}
	return path, cost, nil
}

// ForwardingStats summarizes a greedy-forwarding simulation over a distance
// estimate.
type ForwardingStats struct {
	// Delivered and Failed count source/destination pairs; failures are
	// routing loops or dead ends (possible when the estimate is
	// approximate, or over zero-weight ties).
	Delivered, Failed int
	// InfiniteStretch counts delivered pairs whose exact distance is zero
	// (zero-weight shortest paths) but whose realized cost is positive: the
	// ratio is unbounded, so these pairs are reported here instead of being
	// folded into the stretch aggregates.
	InfiniteStretch int
	// WorstStretch and MeanStretch compare realized path length to the true
	// shortest path, over delivered pairs of finite stretch (a delivered
	// pair with d=0 and cost=0 contributes stretch 1; d=0 with cost>0 is
	// counted by InfiniteStretch and excluded).
	WorstStretch, MeanStretch float64
}

// SimulateForwarding forwards one packet per connected (source,
// destination) pair with RouteToward over the estimate's column of the
// destination, δ(·,v), and measures the realized stretch against exact
// distances. This is the classic application of (approximate) APSP to
// network routing that motivates the problem (paper §1). Dead ends and
// loops count as failures.
func SimulateForwarding(g *Graph, distances *DistanceMatrix) (ForwardingStats, error) {
	if distances == nil {
		return ForwardingStats{}, fmt.Errorf("cliqueapsp: nil distance matrix")
	}
	n := g.N()
	if distances.N() != n {
		return ForwardingStats{}, fmt.Errorf("cliqueapsp: %d×%d distances for %d nodes", distances.N(), distances.N(), n)
	}
	// cols[v*n+w] = δ(w,v): column v laid out as the row RouteToward reads,
	// so every hop compares distances to v even on an asymmetric estimate.
	cols := make([]int64, n*n)
	for w := 0; w < n; w++ {
		for v, d := range distances.Row(w) {
			cols[v*n+w] = d
		}
	}
	exact := Exact(g)
	var stats ForwardingStats
	var sum float64
	// Source-major: MeanStretch is a float sum, so the pair order fixes its
	// last digits.
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || exact.At(u, v) >= Inf {
				continue
			}
			_, cost, err := RouteToward(g, u, v, cols[v*n:(v+1)*n])
			if errors.Is(err, ErrNoRoute) {
				stats.Failed++
				continue
			}
			if err != nil {
				return ForwardingStats{}, err
			}
			stats.Delivered++
			stretch := 1.0
			if d := exact.At(u, v); d > 0 {
				stretch = float64(cost) / float64(d)
			} else if cost > 0 {
				// A zero-weight shortest path realized at positive cost has
				// unbounded stretch; folding it in as 1.0 would silently
				// under-report WorstStretch on zero-weight workloads.
				stats.InfiniteStretch++
				continue
			}
			sum += stretch
			if stretch > stats.WorstStretch {
				stats.WorstStretch = stretch
			}
		}
	}
	if finite := stats.Delivered - stats.InfiniteStretch; finite > 0 {
		stats.MeanStretch = sum / float64(finite)
	}
	return stats, nil
}
