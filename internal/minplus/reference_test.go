package minplus

import (
	"math/rand"
	"slices"
	"testing"
)

// setRowReference is the map-based SetRow it replaced, kept verbatim as the
// differential reference.
func setRowReference(s *RowSparse, i int, ents []Entry) {
	merged := make(map[int]int64, len(ents))
	for _, e := range ents {
		if IsInf(e.W) {
			continue
		}
		if old, ok := merged[e.Col]; !ok || e.W < old {
			merged[e.Col] = e.W
		}
	}
	row := make([]Entry, 0, len(merged))
	for col, w := range merged {
		row = append(row, Entry{Col: col, W: w})
	}
	slices.SortFunc(row, compareCol)
	s.rows[i] = row
}

func TestSetRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const n = 12
	got, want := NewRowSparse(n), NewRowSparse(n)
	for trial := 0; trial < 2000; trial++ {
		ents := make([]Entry, rng.Intn(3*n))
		for j := range ents {
			w := int64(rng.Intn(6))
			switch rng.Intn(6) {
			case 0:
				w = Inf
			case 1:
				w = Inf + int64(rng.Intn(3)) // saturated sums sit at or above Inf
			}
			ents[j] = Entry{Col: rng.Intn(n), W: w}
		}
		in := slices.Clone(ents)
		i := trial % n
		got.SetRow(i, ents)
		setRowReference(want, i, ents)
		if !slices.Equal(got.Row(i), want.Row(i)) {
			t.Fatalf("trial %d: SetRow(%v) = %v, reference %v", trial, ents, got.Row(i), want.Row(i))
		}
		if !slices.Equal(ents, in) {
			t.Fatalf("trial %d: SetRow modified its argument", trial)
		}
	}
}
