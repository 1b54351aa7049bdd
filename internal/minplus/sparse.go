package minplus

import (
	"cmp"
	"fmt"
	"slices"
)

// RowSparse is a row-sparse n×n tropical matrix: only non-infinite entries
// are stored, per row. It is the representation used for filtered adjacency
// matrices (k smallest entries per row, paper §5) and for the skeleton-graph
// products X ⋆ Y (paper §6.2).
type RowSparse struct {
	n    int
	rows [][]Entry
}

// NewRowSparse returns an empty n×n row-sparse matrix.
func NewRowSparse(n int) *RowSparse {
	if n <= 0 {
		panic(fmt.Sprintf("minplus: invalid dimension %d", n))
	}
	return &RowSparse{n: n, rows: make([][]Entry, n)}
}

// N returns the matrix dimension.
func (s *RowSparse) N() int { return s.n }

// Row returns row i as a slice of entries. Callers must not modify it.
func (s *RowSparse) Row(i int) []Entry { return s.rows[i] }

// SetRow replaces row i. Duplicate columns are merged keeping the minimum
// value, and the row is stored sorted by column.
func (s *RowSparse) SetRow(i int, ents []Entry) {
	row := make([]Entry, 0, len(ents))
	for _, e := range ents {
		if !IsInf(e.W) {
			row = append(row, e)
		}
	}
	// Sorted by (column, value), the lightest entry of each column comes
	// first and CompactFunc keeps it.
	slices.SortFunc(row, func(a, b Entry) int {
		if c := compareCol(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a.W, b.W)
	})
	s.rows[i] = slices.CompactFunc(row, func(a, b Entry) bool { return a.Col == b.Col })
}

// NNZ returns the total number of stored entries.
func (s *RowSparse) NNZ() int {
	total := 0
	for _, r := range s.rows {
		total += len(r)
	}
	return total
}

// Density returns the average number of stored entries per row — the ρ
// parameter of the CDKL21 sparse matrix multiplication theorem.
func (s *RowSparse) Density() float64 {
	return float64(s.NNZ()) / float64(s.n)
}

// FilterDense returns the row-sparse matrix keeping, in each row of d, the k
// smallest entries with (value, column-ID) tiebreaks. This is the matrix Ā
// of paper §5: "derived from A by retaining only the k smallest entries in
// each row, breaking ties by node IDs".
func FilterDense(d *Dense, k int) *RowSparse {
	s := NewRowSparse(d.N())
	for i := 0; i < d.N(); i++ {
		s.SetRow(i, d.KSmallestInRow(i, k))
	}
	return s
}

// ToDense expands the sparse matrix into a dense one (absent entries = Inf).
func (s *RowSparse) ToDense() *Dense {
	d := NewDense(s.n)
	for i, row := range s.rows {
		for _, e := range row {
			d.Set(i, e.Col, e.W)
		}
	}
	return d
}

// MulSparse returns the tropical product x ⋆ y of two row-sparse matrices.
// The computation is exact; its Congested Clique round cost is modelled
// separately by CDKL21Rounds.
func MulSparse(x, y *RowSparse) *RowSparse {
	if x.n != y.n {
		panic(fmt.Sprintf("minplus: dimension mismatch %d vs %d", x.n, y.n))
	}
	n := x.n
	out := NewRowSparse(n)
	scratch := make([]int64, n)
	seen := make([]bool, n)
	touched := make([]int, 0, n)
	for i := 0; i < n; i++ {
		touched = touched[:0]
		for _, xe := range x.rows[i] {
			for _, ye := range y.rows[xe.Col] {
				sum := SatAdd(xe.W, ye.W)
				if IsInf(sum) {
					continue
				}
				if !seen[ye.Col] {
					seen[ye.Col] = true
					scratch[ye.Col] = sum
					touched = append(touched, ye.Col)
				} else if sum < scratch[ye.Col] {
					scratch[ye.Col] = sum
				}
			}
		}
		row := make([]Entry, 0, len(touched))
		for _, col := range touched {
			row = append(row, Entry{Col: col, W: scratch[col]})
			seen[col] = false
		}
		slices.SortFunc(row, compareCol)
		out.rows[i] = row
	}
	return out
}

// compareCol orders entries by column.
func compareCol(a, b Entry) int { return cmp.Compare(a.Col, b.Col) }
