// Package minplus implements matrices over the tropical (min-plus) semiring
// (Z≥0 ∪ {∞}, min, +), the algebraic backbone of distance computations in the
// Congested Clique APSP algorithms (paper §2.1 "Matrix exponentiation").
//
// The package provides dense matrices, row-sparse matrices with per-row
// filtering (keeping the k smallest entries per row with node-ID tiebreaks,
// as used by the k-nearest algorithms of paper §5), distance products, and
// the round-cost model for sparse matrix multiplication in the Congested
// Clique from Censor-Hillel, Dory, Korhonen and Leitersdorf (CDKL21,
// Theorem 8; quoted as Theorem 6.1 in the paper).
package minplus

import (
	"cmp"
	"math"
)

// Inf is the additive identity of the tropical semiring ("no path").
// It is chosen with ample headroom so that Inf+Inf does not overflow int64.
const Inf int64 = math.MaxInt64 / 4

// IsInf reports whether v represents an infinite (absent) distance.
// Any value at or above Inf is treated as infinite; saturating arithmetic
// can produce values slightly above Inf.
func IsInf(v int64) bool { return v >= Inf }

// SatAdd returns a+b in the tropical semiring's multiplication (ordinary
// addition), saturating at Inf so that sums of infinities never overflow.
func SatAdd(a, b int64) int64 {
	if IsInf(a) || IsInf(b) {
		return Inf
	}
	s := a + b
	if s >= Inf {
		return Inf
	}
	return s
}

// Entry is a single non-infinite matrix entry within a row: column index and
// value. Entries are ordered by (W, Col); the Col tiebreak mirrors the
// paper's "breaking ties by node IDs" convention.
type Entry struct {
	Col int
	W   int64
}

// Less reports whether e precedes o in (value, column-ID) order.
func (e Entry) Less(o Entry) bool {
	if e.W != o.W {
		return e.W < o.W
	}
	return e.Col < o.Col
}

// Compare orders e and o by (value, column ID), returning -1, 0 or +1: the
// comparator form of Less, for slices.SortFunc.
func (e Entry) Compare(o Entry) int {
	if c := cmp.Compare(e.W, o.W); c != 0 {
		return c
	}
	return cmp.Compare(e.Col, o.Col)
}
