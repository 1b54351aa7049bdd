package graph

// DistHeap is a binary min-heap of NodeDist keyed on Dist: the priority
// queue of every Dijkstra on the build path (Graph.Dijkstra, the greedy
// spanner's bounded search, the hopset's local search). It stores entries
// by value, so pushes and pops do not box. The zero value is an empty heap;
// Reset empties it and keeps the storage for the next search.
type DistHeap struct {
	a []NodeDist
}

// Len returns the number of queued entries.
func (h *DistHeap) Len() int { return len(h.a) }

// Reset empties the heap, keeping its capacity.
func (h *DistHeap) Reset() { h.a = h.a[:0] }

// Push queues node at distance d.
func (h *DistHeap) Push(node int, d int64) {
	h.a = append(h.a, NodeDist{Node: node, Dist: d})
	a := h.a
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if a[parent].Dist <= a[i].Dist {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

// Pop removes and returns an entry of minimum Dist. The heap must be
// non-empty.
func (h *DistHeap) Pop() NodeDist {
	a := h.a
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	h.a = a
	i := 0
	for {
		l := 2*i + 1
		if l >= len(a) {
			break
		}
		small := l
		if r := l + 1; r < len(a) && a[r].Dist < a[l].Dist {
			small = r
		}
		if a[i].Dist <= a[small].Dist {
			break
		}
		a[i], a[small] = a[small], a[i]
		i = small
	}
	return top
}
