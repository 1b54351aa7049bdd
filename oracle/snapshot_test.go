package oracle

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
)

// symmetricEstimate draws a symmetric n×n estimate with Inf entries, an
// unreachable pair in row 0 and row n−1 among them.
func symmetricEstimate(t *testing.T, n int, seed int64) *cliqueapsp.DistanceMatrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 1 + rng.Int63n(1000)
			if rng.Intn(5) == 0 {
				d = cliqueapsp.Inf
			}
			rows[i][j], rows[j][i] = d, d
		}
	}
	if n > 1 {
		rows[0][n-1], rows[n-1][0] = cliqueapsp.Inf, cliqueapsp.Inf
	}
	d, err := cliqueapsp.DistancesFromSlices(rows)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestResidentMatchesMatrix pins the packed layout: every entry and every
// row the resident source serves equals the matrix it packed, at sizes
// around the 64-entry packing block and at the first and last rows.
func TestResidentMatchesMatrix(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1, 2, 3, 64, 257} {
		d := symmetricEstimate(t, n, int64(n))
		tri, err := packSymmetric(d)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(tri) != n*(n+1)/2 {
			t.Fatalf("n=%d: packed %d entries, want %d", n, len(tri), n*(n+1)/2)
		}
		r := newResident(cliqueapsp.NewGraph(n), tri)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got, _ := r.EntryCtx(ctx, u, v); got != d.At(u, v) {
					t.Fatalf("n=%d: EntryCtx(%d,%d) = %d, want %d", n, u, v, got, d.At(u, v))
				}
			}
			if err := r.VisitRowCtx(ctx, u, func(row []int64) {
				if !slices.Equal(row, d.Row(u)) {
					t.Fatalf("n=%d: row %d = %v, want %v", n, u, row, d.Row(u))
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		if w := r.widen(); !slices.Equal(w.ToSlices()[n-1], d.Row(n-1)) {
			t.Fatalf("n=%d: widened last row differs", n)
		}
	}
}

// TestPackSymmetric pins what packing accepts: entries at or above Inf in
// either direction are one unreachable value and pack as Inf, and any
// finite mismatch is refused, naming the pair.
func TestPackSymmetric(t *testing.T) {
	inf := cliqueapsp.Inf
	d, err := cliqueapsp.DistancesFromSlices([][]int64{
		{0, inf + 3, 4},
		{inf, 0, inf + 1},
		{4, inf + 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := packSymmetric(d)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, inf, 4, 0, inf, 0}; !slices.Equal(tri, want) {
		t.Fatalf("packed %v, want %v", tri, want)
	}

	rows := symmetricEstimate(t, 130, 1).ToSlices()
	rows[70][100], rows[100][70] = 5, 6 // the lower entry sits in a later column block
	d, err = cliqueapsp.DistancesFromSlices(rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := packSymmetric(d); err == nil || !strings.Contains(err.Error(), "asymmetric estimate refused: d(70,100)") {
		t.Fatalf("packing an asymmetric estimate: %v, want it refused at (70,100)", err)
	}
}
